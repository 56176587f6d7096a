"""Geometric vertex decomposition tests: splits, search, certificates,
and the structural construction for balanced forests."""

import dataclasses
import hashlib
import json
import random
import sys
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oni_kit import (
    Base,
    Graph,
    InputError,
    Split,
    SimplicialComplex,
    SquareFreeIdeal,
    Universe,
    certificate_from_json_obj,
    certificate_to_json_obj,
    certify_tree_gvd,
    find_split_vertex,
    heights,
    is_gvd,
    is_valid_geometric_decomposition,
    is_vertex_decomposable,
    o_extend,
    o_sequence,
    odd_oni,
    oni,
    split,
    stanley_reisner_complex,
    stanley_reisner_ideal,
    validate_certificate,
)
from oni_kit.fixtures import beg_a, p6, t_a, twin_broom
from oni_kit import gvd as gvd_module
from oni_kit import universe as universe_module
from oni_kit.complexes import _shed
from oni_kit.graphs import _split_vertex
from oni_kit.gvd import _disconnected, _interning, _split_height, _split_masks
from oni_kit.universe import SpernerFamily, minimal_masks

LABELS = tuple("abcde")


def build(labels, supports):
    return SquareFreeIdeal.from_supports(Universe(labels), supports)


def p6_odd_ideal():
    return odd_oni(p6())


@st.composite
def ideals(draw, max_elems: int = 5, max_gens: int = 4):
    n = draw(st.integers(1, max_elems))
    labels = LABELS[:n]
    count = draw(st.integers(0, max_gens))
    supports = [draw(st.sets(st.sampled_from(labels))) for _ in range(count)]
    return labels, supports


# ---------------------------------------------------------------------------
# one-variable splits


def test_split_example():
    c_part, n_part = split(p6_odd_ideal(), "2")
    assert c_part.universe.labels == ("0", "4", "6")
    assert c_part.generators.members == (("0",), ("4",))
    assert n_part.generators.members == (("4", "6"),)


def test_split_degenerate_cases():
    principal = build("ab", [["a"]])
    c_part, n_part = split(principal, "a")
    assert c_part.is_unit and n_part.is_zero
    # a variable no generator uses splits the ideal into two copies of itself
    c_part, n_part = split(build("abc", [["a", "b"]]), "c")
    assert c_part == n_part
    assert c_part.generators.members == (("a", "b"),)
    with pytest.raises(InputError, match="variable 'z' not in the ideal's universe"):
        split(principal, "z")
    with pytest.raises(InputError, match=r"variable \['a'\] not in the ideal's universe"):
        split(principal, ["a"])


def is_canonical_antichain(masks):
    """No repeats, no member inside another, in canonical order."""
    return list(masks) == sorted(set(masks), key=oracles.reference_sort_key) and not any(
        a != b and a & b == a for a in masks for b in masks
    )


@given(ideals(max_gens=6))
@example(("abc", [[]]))  # the unit ideal
@example(("abc", []))  # the zero ideal
@example(("abc", [["a"], ["b", "c"]]))  # a variable is a generator
@example(("abc", [["a", "b"]]))  # c divides no generator
@settings(max_examples=300, deadline=None)
def test_split_matches_reference(case):
    labels, supports = case
    ideal = build(labels, supports)
    for y in labels:
        assert split(ideal, y) == oracles.reference_split(ideal, y)
        c_gens, n_gens = _split_masks(ideal.generators.masks, 1 << ideal.universe.position(y))
        assert is_canonical_antichain(c_gens) and is_canonical_antichain(n_gens)


@st.composite
def wide_antichains(draw):
    """Position sets over 9-24 variables, whose minimal masks are the
    generators, and the position of the variable to split at."""
    n = draw(st.integers(9, 24))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=5), max_size=12))
    return sets, draw(st.integers(0, n - 1))


@given(wide_antichains())
@example(([{0, 9}, {9, 10}], 0))  # the N generator {9, 10} contains the stripped {9}
@example(([{1, 12, 20}, {2, 15}, {3, 12, 17}, {4, 16}], 12))  # C interleaves the two
@example(([{3, 8}, {8, 16}, {0, 23}], 8))  # stripped {3} and {16}, kept {0, 23}
@settings(max_examples=300, deadline=None)
def test_split_masks_match_minimal_masks_on_wide_ideals(case):
    sets, y = case
    gens = tuple(oracles.reference_minimal_masks(sum(1 << p for p in s) for s in sets))
    ybit = 1 << y
    c_gens, n_gens = _split_masks(gens, ybit)
    assert c_gens == minimal_masks(m & ~ybit for m in gens)
    assert n_gens == tuple(m for m in gens if not m & ybit)
    assert is_canonical_antichain(c_gens)


@st.composite
def kernel_antichains(draw):
    """A position count n <= 9 and a canonical antichain over n positions,
    the minimal masks of drawn sets, half the time all of one size, so
    that every distinct set is a member; sometimes one position is added
    to every set, so it lies in every member, or taken from every set, so
    it lies in none."""
    n = draw(st.integers(0, 9))
    if n and draw(st.booleans()):
        k = draw(st.integers(1, n))
        member = st.sets(st.integers(0, n - 1), min_size=k, max_size=k)
    else:
        member = st.sets(st.integers(0, n - 1)) if n else st.just(set())
    masks = [sum(1 << p for p in s) for s in draw(st.lists(member, max_size=8))]
    if n and draw(st.booleans()):
        bit = 1 << draw(st.integers(0, n - 1))
        masks = [m | bit for m in masks] if draw(st.booleans()) else [m & ~bit for m in masks]
    return n, tuple(oracles.reference_minimal_masks(masks))


@given(kernel_antichains())
@example((3, ()))  # the zero ideal, the void complex
@example((3, (0,)))  # the unit ideal, the empty complex
@example((3, (0b011, 0b101)))  # position 0 in every member, no position in none
@example((4, (0b011, 0b110)))  # position 3 in no member: divides no generator
@settings(max_examples=300, deadline=None)
def test_one_pass_kernels_match_their_two_pass_forms(case):
    n, masks = case
    for p in range(n):
        bit = 1 << p
        assert _split_masks(masks, bit) == oracles.two_pass_split_masks(masks, bit)
        assert _shed(masks, bit) == oracles.two_pass_shed(masks, bit)


@given(ideals())
@example(("ab", [[]]))  # the unit ideal
@example(("ab", []))  # the zero ideal
@settings(max_examples=150, deadline=None)
def test_square_free_splits_always_recombine(case):
    # the identity is_valid_geometric_decomposition answers from its proof,
    # checked on split's output
    labels, supports = case
    ideal = build(labels, supports)
    for y in labels:
        assert oracles.recombines(ideal, y)


def test_split_validity_is_true_at_every_label_and_refuses_others():
    ideal = p6_odd_ideal()
    for y in ideal.universe.labels:
        assert is_valid_geometric_decomposition(ideal, y) is True
    for y in ("z", "", 2, None, ["2"]):
        with pytest.raises(InputError) as info:
            is_valid_geometric_decomposition(ideal, y)
        assert str(info.value) == f"variable {y!r} not in the ideal's universe"


def prime_sizes(ideal):
    """Sizes of the minimal primes, found by subset search; the zero
    ideal's one prime is (0), and the unit ideal has none."""
    return {len(p) for p in oracles.transversals_oracle(ideal.generators.members)}


@given(ideals())
@settings(max_examples=300, deadline=None)
def test_height_rule_matches_dualization(case):
    labels, supports = case
    ideal = build(labels, supports)
    if ideal.is_unit:
        return
    sizes = prime_sizes(ideal)
    for y in labels:
        c_part, n_part = split(ideal, y)
        c_sizes, n_sizes = prime_sizes(c_part), prime_sizes(n_part)
        if len(c_sizes) > 1:
            # every minimal prime of C is one of I
            assert len(sizes) > 1
            continue
        if len(n_sizes) > 1:
            continue
        c_height = min(c_sizes, default=None)  # None for the unit ideal
        height = _split_height(
            c_part.generators.masks, c_height, n_part.generators.masks, min(n_sizes)
        )
        assert (height is not None) == (len(sizes) == 1)
        if height is not None:
            assert {height} == sizes


# ---------------------------------------------------------------------------
# the decision procedure


@pytest.fixture
def split_calls(monkeypatch):
    """A one-item list counting the `_split_masks` calls gvd makes."""
    calls = [0]

    def counted_split(gens, ybit):
        calls[0] += 1
        return _split_masks(gens, ybit)

    monkeypatch.setattr(gvd_module, "_split_masks", counted_split)
    return calls


def test_base_cases():
    assert is_gvd(build("ab", [[]])) == (True, Base("unit"))
    assert is_gvd(build("ab", [])) == (True, Base("zero"))
    assert is_gvd(build("ab", [["a"], ["b"]])) == (True, Base("vars"))


def test_path_odd_ideal_is_gvd():
    ideal = p6_odd_ideal()
    ok, cert = is_gvd(ideal)
    assert ok
    # "0" admits a decomposition too, but its N-branch is mixed; the
    # canonical search settles on the next variable
    assert isinstance(cert, Split) and cert.variable == "2"
    assert validate_certificate(ideal, cert)
    forged = Split("0", cert.c_branch, cert.n_branch)
    assert not validate_certificate(ideal, forged)
    assert not validate_certificate(build("ab", [["a", "b"]]), cert)


def test_seven_cycle_edge_ideal_is_not_gvd(split_calls):
    labels = [str(i) for i in range(7)]
    supports = [[labels[i], labels[(i + 1) % 7]] for i in range(7)]
    ideal = build(labels, supports)
    assert ideal.is_unmixed()
    ok, cert = is_gvd(ideal)
    assert not ok and cert is None
    # Every link in the 7-cycle's independence complex is that of a path,
    # so every C the search meets is GVD (at the root, the 4-vertex path's
    # edge ideal plus the two neighbours of the split vertex as variables):
    # the search never stops early at a C.  Below the Ns, 16 nodes are a
    # 3-vertex path's edge ideal plus variables.  Their complex is an edge
    # and the path's middle vertex alone.  Lemma 2 is tested once a node's
    # first N is not GVD, so each of them is split at its first variable
    # (C and N, each settled below) and then settled: 98 splits, where
    # testing it at every node's entry made 79 and no test at all 124.
    assert split_calls[0] == 98


def test_search_stops_at_the_first_c_that_is_not_gvd(split_calls):
    # C of a GVD ideal is GVD, so a node is settled as not GVD by the first
    # variable whose C is not; going on to the later variables, as a search
    # without that lemma must, takes 36 splits.
    assert is_gvd(SquareFreeIdeal(beg_a())) == (False, None)
    assert 0 < split_calls[0] <= 20


@given(ideals(max_gens=6))
@example(("abc", [["a"], ["b", "c"]]))  # C at a is the unit ideal
@settings(max_examples=300, deadline=None)
def test_c_of_a_gvd_ideal_is_gvd(case):
    # the lemma behind that stop, checked with the exhaustive reference
    ideal = build(*case)
    if not oracles.reference_is_gvd(ideal)[0]:
        return
    for y in ideal.universe.labels:
        c_part, _ = split(ideal, y)
        assert oracles.reference_is_gvd(c_part)[0]


def skeleton_has_an_edge_and_is_disconnected(complex_):
    """Read from the facets alone: some facet has two vertices, and the
    edges inside facets do not join every vertex into one component."""
    facets = [set(f) for f in complex_.facets.members]
    edges = {frozenset(pair) for f in facets for pair in combinations(sorted(f), 2)}
    if not edges:
        return False
    vertices = set().union(*facets)
    reached, grown = {min(vertices)}, True
    while grown:
        grown = False
        for edge in edges:
            if len(edge & reached) == 1:
                reached |= edge
                grown = True
    return reached != vertices


@given(ideals(max_gens=6))
@example(("abcd", [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]))  # two disjoint edges
@example(("abc", [["a", "b"], ["a", "c"]]))  # the lowest vertex alone, an edge apart
@example(("abc", [["a", "b"], ["a", "c"], ["b", "c"]]))  # three vertices, no edge
@example(("abcd", [["a"], ["b", "c"], ["c", "d"]]))  # a is no vertex; the edge bd, and c alone
@example(("abc", [[]]))  # the unit ideal: the void complex
@settings(max_examples=300, deadline=None)
def test_gvd_complexes_are_edgeless_or_connected(case):
    # lemma 2, checked with the exhaustive reference and the facets of the
    # reference Stanley-Reisner complex; and the search's one-pass test agrees
    ideal = build(*case)
    complex_ = oracles.reference_stanley_reisner_complex(ideal)
    disconnected = skeleton_has_an_edge_and_is_disconnected(complex_)
    if oracles.reference_is_gvd(ideal)[0]:
        assert not disconnected
    assert _disconnected(ideal.universe.full_mask(), ideal.generators.masks) is disconnected


def heaviest_seed_1_negative():
    """The ideal of the decide benchmark's seed-1 complex that takes the
    most splits to refute by splitting alone."""
    facets = ["ab", "ae", "af", "bc", "be", "ce", "cf", "dg"]
    return stanley_reisner_ideal(SimplicialComplex.from_facets(Universe("abcdefg"), facets))


@pytest.mark.parametrize(
    "ideal, splits",
    [
        (build("abcd", [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]), 3),  # 10 without lemma 2
        (heaviest_seed_1_negative(), 11),  # 351 without it
    ],
    ids=["four_cycle", "heaviest_seed_1_negative"],
)
def test_disconnected_complex_is_refuted_at_its_first_failed_n(split_calls, ideal, splits):
    # The 4-cycle's complex is two disjoint edges; in the other, the facet
    # dg lies apart from the rest.  Lemma 2 is tested once the root's first
    # N is not GVD, so the root makes one split, and settling its C and N
    # takes the rest; tested at every node's entry, it refuted both roots
    # with no split.
    assert skeleton_has_an_edge_and_is_disconnected(stanley_reisner_complex(ideal))
    assert is_gvd(ideal) == (False, None)
    assert split_calls[0] == splits


def assert_matches_entry_lemma_2_search(ideal):
    ok, cert = is_gvd(ideal)
    ref_ok, ref_cert = oracles.entry_lemma_2_is_gvd(ideal)
    assert ok == ref_ok
    if ok:
        assert dag_digest([cert]) == dag_digest([ref_cert])
    else:
        assert cert is None and ref_cert is None


@given(ideals(max_gens=6))
@example(("abcd", [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]))  # two disjoint edges
@settings(max_examples=300, deadline=None)
def test_is_gvd_matches_the_search_with_lemma_2_at_entry(case):
    # Where lemma 2 is tested moves only how soon a node that is not GVD is
    # settled: verdicts, certificates and their sharing stay those of the
    # search that tests it at every node's entry.
    assert_matches_entry_lemma_2_search(build(*case))


def test_is_gvd_matches_the_search_with_lemma_2_at_entry_on_seeded_complexes():
    # the Stanley-Reisner ideals of the 200 seeded pure complexes of
    # test_complexes::test_shedding_certificates_pinned, 92 of them VD
    for seed in range(200):
        assert_matches_entry_lemma_2_search(stanley_reisner_ideal(oracles.seeded_pure_complex(seed)))


def test_search_cuts_off_below_a_mixed_c_branch(monkeypatch):
    # Many subproblems of this 22-variable ideal are mixed.  The search
    # makes about 1,000 splits; searching each mixed subproblem until the
    # height rule applies would take more than 300,000.
    tree = o_sequence(
        ["4", "5", "p1_1", "3", "p1_2", "1", "p1_1", "p1_3", "5", "p5_1", "p5_3", "p5_3"]
    )
    calls = 0

    def counted_split(gens, ybit):
        nonlocal calls
        calls += 1
        if calls > 5000:
            raise AssertionError("search kept splitting inside mixed subproblems")
        return _split_masks(gens, ybit)

    monkeypatch.setattr(gvd_module, "_split_masks", counted_split)
    ok, _ = is_gvd(odd_oni(tree))
    assert ok
    assert calls > 0


def json_round_trip(cert):
    return certificate_from_json_obj(json.loads(json.dumps(certificate_to_json_obj(cert))))


def test_replay_splits_each_shared_node_once(split_calls):
    # The 52-vertex tree's certificate, like its decoded copy, shares equal
    # subtrees: 496 distinct nodes, where the JSON writes out 24,115; a
    # replay that expanded the shared ones would split far more often than
    # once per node.
    tree = oracles.seeded_grown_tree(18)
    ideal = odd_oni(tree)
    assert (len(tree.vertices), len(ideal.universe)) == (52, 32)
    cert = certify_tree_gvd(tree)
    decoded = json_round_trip(cert)
    assert decoded == cert and len(dag_nodes(decoded)) == 496
    for certificate in (cert, decoded):
        split_calls[0] = 0
        assert validate_certificate(ideal, certificate)
        assert split_calls[0] == 493  # one per split node; 3 of the 496 are bases


def test_replay_memo_keeps_the_live_variables_a_node_uses():
    # X splits at v and is reached twice with the same generators: under
    # C of w with v live, and under a split at v, where v is gone.  The
    # replay memo is keyed on (node, generators), so without the check that
    # no split variable is split again below it, the first verdict would be
    # reused and the forgery accepted.
    ideal = build("abvw", [["a", "b"]])
    y_node = Split("a", Base("vars"), Base("zero"))
    x_node = Split("v", y_node, y_node)
    forged = Split("w", x_node, Split("v", x_node, x_node))
    genuine = Split("w", x_node, x_node)
    for cert, expected in ((forged, False), (genuine, True)):
        assert oracles.reference_validate_certificate(ideal, cert) is expected
        assert validate_certificate(ideal, cert) is expected
        assert validate_certificate(ideal, json_round_trip(cert)) is expected


@pytest.mark.parametrize("name", ["grown_tree", "beg_a"])
def test_search_and_replay_build_no_objects_below_the_root(monkeypatch, name):
    if name == "beg_a":  # not GVD: replay its split parts' certificates
        ideal = SquareFreeIdeal(beg_a())
        certs = [
            Split(y, is_gvd(c_part)[1] or Base("zero"), is_gvd(n_part)[1] or Base("zero"))
            for y in ideal.universe.labels
            for c_part, n_part in [split(ideal, y)]
        ]
        expected = [oracles.reference_validate_certificate(ideal, c) for c in certs]
    else:
        tree = oracles.seeded_grown_tree(10)
        ideal = odd_oni(tree)
        certs = [certify_tree_gvd(tree), is_gvd(ideal)[1]]
        expected = [True, True]
    called = []
    for cls in (Universe, SpernerFamily, SquareFreeIdeal):
        original = cls.__init__

        def counted(self, *args, _cls=cls, _original=original):
            called.append(_cls.__name__)
            _original(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    # nor does a split sort or minimize
    for module, attr in ((gvd_module, "minimal_masks"), (universe_module, "sort_key")):
        original = getattr(module, attr)

        def counted_call(*args, _attr=attr, _original=original):
            called.append(_attr)
            return _original(*args)

        monkeypatch.setattr(module, attr, counted_call)
    ok, _ = is_gvd(ideal)
    verdicts = [validate_certificate(ideal, c) for c in certs]
    assert called == []
    assert ok == (name != "beg_a") and verdicts == expected


def test_mixed_ideal_is_rejected_without_certificate():
    mixed = build("abc", [["a", "b"], ["b", "c"]])
    assert not mixed.is_unmixed()
    assert is_gvd(mixed) == (False, None)


def dag_shape(cert):
    """The certificate with every repeated node object replaced by the
    index of its first appearance: equal shapes mean equal sharing."""
    seen = {}

    def walk(node):
        if id(node) in seen:
            return seen[id(node)]
        seen[id(node)] = len(seen)
        if isinstance(node, Base):
            return node.kind
        return node.variable, walk(node.c_branch), walk(node.n_branch)

    return walk(cert)


def assert_matches_reference(ideal):
    ok, cert = is_gvd(ideal)
    ref_ok, ref_cert = oracles.reference_is_gvd(ideal)
    assert ok == ref_ok
    if ok:
        assert certificate_to_json_obj(cert) == certificate_to_json_obj(ref_cert)
        assert dag_shape(cert) == dag_shape(oracles.shared(ref_cert))
    else:
        assert cert is None and ref_cert is None


@given(ideals(max_gens=6))
# mixed, and its C at c, the 4-cycle's edge ideal, is unmixed but not GVD:
# the search stops there, where going on to d would show the ideal mixed
@example(("abcde", [["a", "b"], ["a", "d"], ["b", "e"], ["c", "d", "e"]]))
@settings(max_examples=300, deadline=None)
def test_is_gvd_matches_reference(case):
    assert_matches_reference(build(*case))


@pytest.mark.parametrize(
    "make",
    [p6, t_a, twin_broom, lambda: o_sequence(["3", "1", "4"]), lambda: o_sequence(["3", "3", "3"])],
)
def test_is_gvd_matches_reference_on_trees(make):
    # grown trees' certificates share nodes: 19 and 20 distinct splits
    # stand for 105 and 199 in the expanded tree
    assert_matches_reference(odd_oni(make()))


def test_is_gvd_matches_reference_on_beg_a():
    assert_matches_reference(SquareFreeIdeal(beg_a()))


def search_digest(found):
    """The first 16 hex digits of the sha256 of the canonical JSON of a
    search's verdict and its certificate's `dag_shape`, which fixes the
    certificate and its sharing."""
    ok, cert = found
    text = json.dumps([ok, None if cert is None else dag_shape(cert)], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


SEARCH_DIGESTS = {
    "odd_oni-0": "2a02ee403eea4c59", "oni-0": "aca53ddd1cab5fe0",
    "odd_oni-1": "716606b64c1e4939", "oni-1": "20b906ecdfb7a671",
    "odd_oni-2": "22aa9f2d5fee6181", "oni-2": "9ce7182d86a58e7e",
    "odd_oni-3": "47c3e5ce76379fbd", "oni-3": "4a4c84b468c1db3a",
    "odd_oni-4": "6396d7369abfa63b", "oni-4": "b67f5a4a9175e3d5",
    "odd_oni-5": "9b9de7801de20455", "oni-5": "a24cff61ed262fad",
    "odd_oni-6": "c2088d1a616d5a4b", "oni-6": "57c5723bd61817be",
    "odd_oni-7": "3a6bfff9dcd2654b", "oni-7": "cc5fd99a8e717d95",
    "odd_oni-8": "b25ac73fbdd55a38", "oni-8": "287944ab1276d6da",
    "odd_oni-9": "237053d15266722e", "oni-9": "705ba6042b92f37f",
    "odd_oni-10": "6a3619e4c830981a", "oni-10": "5ac3cfd61e08e0c0",
    "odd_oni-11": "fa8b078e61e7eae3", "oni-11": "804d815560b14d84",
    "odd_oni-12": "8db5356c049b0d97", "oni-12": "d23da80c5b1f6d5e",
    "odd_oni-13": "6a890e91b47f1879", "oni-13": "9f5a759b21b16baa",
    "odd_oni-14": "e8f29f44e3c9bf13", "oni-14": "70dcf3be86a9150c",
    "7-cycle": "f50e91a9869ca40c",
}


def test_search_certificates_pinned():
    # The first witness `is_gvd` returns, and its sharing, on the odd and
    # full open neighborhood ideals of grown trees 0-14 and on the 7-cycle's
    # edge ideal: a faster search must try variables in the same order.
    got = {}
    for k in range(15):
        tree = oracles.seeded_grown_tree(k)
        got[f"odd_oni-{k}"] = search_digest(is_gvd(odd_oni(tree)))
        got[f"oni-{k}"] = search_digest(is_gvd(oni(tree)))
    labels = [str(i) for i in range(7)]
    cycle = build(labels, [[labels[i], labels[(i + 1) % 7]] for i in range(7)])
    got["7-cycle"] = search_digest(is_gvd(cycle))
    assert got == SEARCH_DIGESTS


def test_references_are_independent_of_the_dualization_kernel(monkeypatch):
    # A kernel that drops its last minimal transversal whenever it finds
    # three or more leaves every GVD, Stanley-Reisner and stable reference
    # unmoved, while the package's own Stanley-Reisner complex goes wrong.
    labels = [str(i) for i in range(7)]
    cycle = Graph(Universe(labels), [(labels[i], labels[(i + 1) % 7]) for i in range(7)])
    graphs = [p6(), t_a(), cycle]
    ideals = [odd_oni(p6()), odd_oni(t_a()), SquareFreeIdeal(beg_a()), build(labels, cycle.edges)]
    candidates = [is_gvd(ideal)[1] for ideal in ideals[:2]]
    candidates += [
        Split(y, is_gvd(c_part)[1] or Base("zero"), is_gvd(n_part)[1] or Base("zero"))
        for ideal in ideals
        for y in ideal.universe.labels
        for c_part, n_part in [split(ideal, y)]
    ]

    def answers():
        out = []
        for ideal in ideals:
            sr_complex = oracles.reference_stanley_reisner_complex(ideal)
            out += [
                oracles.reference_is_gvd(ideal),
                [oracles.reference_validate_certificate(ideal, c) for c in candidates],
                sr_complex,
                oracles.reference_stanley_reisner_ideal(sr_complex),
                oracles.covers_unmixed(sr_complex),
            ]
        for graph in graphs:
            out.append(oracles.reference_stable_complex(graph))
            try:
                out.append(oracles.reference_even_stable_complex(graph))
            except InputError as exc:
                out.append(str(exc))
        return out

    before = answers()
    original = universe_module.minimal_transversals

    def crippled(family):
        tau = original(family)
        if len(tau.masks) < 3:
            return tau
        return SpernerFamily._canonical(tau.universe, tau.masks[:-1])

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "oni_kit" and hasattr(module, "minimal_transversals"):
            monkeypatch.setattr(module, "minimal_transversals", crippled)
    assert answers() == before
    assert any(
        stanley_reisner_complex(ideal) != oracles.reference_stanley_reisner_complex(ideal)
        for ideal in ideals
    )


def split_again_first(node, y):
    """The split `node` with its C branch split at y first."""
    return Split(node.variable, Split(y, node.c_branch, node.c_branch), node.n_branch)


def splits_at_variables_not_live(cert):
    """Forgeries of a genuine certificate that split at "z", which is not
    in the universe, or again at a variable split away above: right below
    the split that removed it, in the C branch and in the N branch, and
    two or three levels below it.  Where a branch of the root splits with
    one node as its C and N, that shared node also gets the branch's and
    the root's variable split again below it.  Were such a variable taken
    to divide nothing, C and N would both equal the ideal split and these
    would replay."""
    yield Split("z", cert, cert)
    if not isinstance(cert, Split):
        return
    y, c_node, n_node = cert.variable, cert.c_branch, cert.n_branch
    for again in ("z", y):
        yield Split(y, Split(again, c_node, c_node), n_node)
    yield Split(y, c_node, Split(y, n_node, n_node))
    if isinstance(c_node, Split):
        yield Split(y, split_again_first(c_node, y), n_node)
    if isinstance(n_node, Split):
        yield Split(y, c_node, split_again_first(n_node, y))
    for node in (c_node, n_node):
        shared = getattr(node, "c_branch", None)
        if isinstance(shared, Split) and shared is node.n_branch:
            for again in (node.variable, y):
                below = split_again_first(shared, again)
                forged = Split(node.variable, below, below)
                yield Split(y, forged, n_node) if node is c_node else Split(y, c_node, forged)
            break


def forged_certificates(ideal, cert):
    """Certificates that differ from a genuine one at the root: every other
    split variable, the branches swapped, and a split whose C and N carry
    their own genuine certificates (rejected exactly when the ideal is
    mixed).  Also the forgeries of `splits_at_variables_not_live`."""
    labels = ideal.universe.labels
    if cert is not None:
        yield from splits_at_variables_not_live(cert)
    if isinstance(cert, Split):
        yield Split(cert.variable, cert.n_branch, cert.c_branch)
        for y in labels:
            if y != cert.variable:
                yield Split(y, cert.c_branch, cert.n_branch)
    for y in labels:
        c_part, n_part = split(ideal, y)
        c_ok, c_cert = is_gvd(c_part)
        n_ok, n_cert = is_gvd(n_part)
        if c_ok and n_ok:
            yield Split(y, c_cert, n_cert)


def reused_below_own_variable(ideal):
    """Forgeries that reach one genuine node X, a split at v, twice: as C
    of a split at w, with v live, and below a split at v, where v is gone.
    Neither v nor w divides a generator, so both visits see the ideal's
    own generators, and a replay memo keyed on (node, generators) with no
    check of the variables split below a split would accept the forgery.
    X's branches certify the ideal over the universe without v and w."""
    support = 0
    for mask in ideal.generators.masks:
        support |= mask
    unused = [y for p, y in enumerate(ideal.universe.labels) if not support >> p & 1]
    for v, w in permutations(unused, 2):
        ok, rest = is_gvd(split(split(ideal, v)[1], w)[1])
        if ok:
            x_node = Split(v, rest, rest)
            yield Split(w, x_node, Split(v, x_node, x_node))


certificates = st.recursive(
    st.sampled_from([Base("unit"), Base("zero"), Base("vars")]),
    lambda kids: st.builds(Split, st.sampled_from(LABELS), kids, kids),
    max_leaves=10,
)


@given(ideals(max_gens=6), ideals(max_gens=6), certificates)
@settings(max_examples=300, deadline=None)
def test_validate_certificate_matches_reference(case, other, random_cert):
    # Each candidate is also replayed after a JSON round trip.  Bases are
    # one per kind, so no two decoded splits with one variable and the same
    # branch objects means that equal subtrees decoded to one node.
    ideal = build(*case)
    _, cert = is_gvd(ideal)
    _, other_cert = is_gvd(build(*other))
    candidates = [random_cert, *forged_certificates(ideal, cert)]
    candidates += reused_below_own_variable(ideal)
    candidates += [c for c in (cert, other_cert) if c is not None]
    for candidate in candidates:
        verdict = oracles.reference_validate_certificate(ideal, candidate)
        assert validate_certificate(ideal, candidate) == verdict
        decoded = json_round_trip(candidate)
        assert decoded == candidate
        splits = [node for node in dag_nodes(decoded) if isinstance(node, Split)]
        assert len({(n.variable, id(n.c_branch), id(n.n_branch)) for n in splits}) == len(splits)
        assert validate_certificate(ideal, decoded) == verdict
    if cert is not None:
        assert validate_certificate(ideal, cert)


def test_replay_rejects_variables_not_live():
    # In p6's and t_a's certificates the root's N splits with one node as
    # its C and N, so each gets forgeries below a shared node.
    for make, count in ((p6, 7), (t_a, 8)):
        ideal = odd_oni(make())
        _, cert = is_gvd(ideal)
        forgeries = list(splits_at_variables_not_live(cert))
        assert len(forgeries) == count
        for forged in forgeries:
            assert not oracles.reference_validate_certificate(ideal, forged)
            assert not validate_certificate(ideal, forged)
            assert not validate_certificate(ideal, json_round_trip(forged))


def test_replay_rejects_nodes_that_are_not_certificates():
    ideal = p6_odd_ideal()
    _, cert = is_gvd(ideal)
    y = cert.variable
    malformed = [
        "vars",
        None,
        Split(y, None, cert.n_branch),
        Split(y, cert.c_branch, "vars"),
        Split([y], cert.c_branch, cert.n_branch),
        Split(0, cert.c_branch, cert.n_branch),
    ]
    for node in malformed:
        assert validate_certificate(ideal, node) is False
    assert validate_certificate(build("ab", [["a", "b"]]), Split("a", None, Base("zero"))) is False


def all_pure_complexes(n):
    labels = LABELS[:n]
    for k in range(1, n + 1):
        subsets = list(combinations(labels, k))
        for pick in range(1, 1 << len(subsets)):
            yield labels, [subsets[i] for i in range(len(subsets)) if pick >> i & 1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gvd_matches_vertex_decomposability_small(n):
    for labels, facets in all_pure_complexes(n):
        complex_ = SimplicialComplex.from_facets(Universe(labels), facets)
        ok, _ = is_gvd(stanley_reisner_ideal(complex_))
        assert ok == is_vertex_decomposable(complex_)[0], facets


# ---------------------------------------------------------------------------
# certificate serialization


def test_certificate_json_round_trip():
    _, cert = is_gvd(p6_odd_ideal())
    doc = certificate_to_json_obj(cert)
    assert certificate_from_json_obj(doc) == cert
    assert certificate_from_json_obj({"base": "zero"}) == Base("zero")


def test_certificate_json_errors():
    with pytest.raises(InputError, match="unknown certificate base kind 'nope'"):
        certificate_from_json_obj({"base": "nope"})
    with pytest.raises(InputError, match='"split" needs keys y, C, N'):
        certificate_from_json_obj({"split": {"y": "a"}})
    with pytest.raises(InputError, match="split variable must be a string"):
        certificate_from_json_obj(
            {"split": {"y": 1, "C": {"base": "zero"}, "N": {"base": "zero"}}}
        )
    with pytest.raises(InputError, match='must be {"base": …} or {"split": …}'):
        certificate_from_json_obj({"leaf": "simplex"})
    with pytest.raises(InputError, match='must be {"base": …} or {"split": …}'):
        certificate_from_json_obj({"base": "zero", "extra": 1})
    # non-string values must not reach a dict lookup as keys
    for kind in (["unit"], {}):
        with pytest.raises(InputError, match="unknown certificate base kind"):
            certificate_from_json_obj({"base": kind})
    with pytest.raises(InputError, match="split variable must be a string"):
        certificate_from_json_obj(
            {"split": {"y": ["a"], "C": {"base": "zero"}, "N": {"base": "zero"}}}
        )
    with pytest.raises(InputError, match='must be {"base": …} or {"split": …}'):
        certificate_from_json_obj({"leaf": ["simplex"]})


# ---------------------------------------------------------------------------
# structural certificates for balanced forests


@pytest.mark.parametrize("make", [p6, t_a, twin_broom])
def test_tree_certificates_validate(make):
    tree = make()
    cert = certify_tree_gvd(tree)
    assert validate_certificate(odd_oni(tree), cert)


def test_forest_certificate_validates():
    forest = Graph(
        Universe("abcdef"),
        [("a", "c"), ("b", "c"), ("d", "f"), ("e", "f")],
    )
    cert = certify_tree_gvd(forest)
    assert validate_certificate(odd_oni(forest), cert)


def test_star_certificate_is_a_chain():
    # one generator, the product of the leaves: peeled in label order
    star = Graph(Universe("abcd"), [("c", "a"), ("c", "b"), ("c", "d")])
    cert = certify_tree_gvd(star)
    assert certificate_to_json_obj(cert) == {
        "split": {
            "y": "a",
            "C": {"split": {"y": "b", "C": {"base": "vars"}, "N": {"base": "zero"}}},
            "N": {"base": "zero"},
        }
    }
    assert validate_certificate(odd_oni(star), cert)


def test_certificates_survive_universe_extension():
    ideal = p6_odd_ideal()
    cert = certify_tree_gvd(p6())
    wider = ideal.extended_to(Universe(ideal.universe.labels + ("z",)))
    assert validate_certificate(wider, cert)


@pytest.mark.parametrize("picks", [["1"], ["4"], ["3", "1"], ["4", "3"]])
def test_grown_tree_certificates_validate(picks):
    tree = o_sequence(picks)
    cert = certify_tree_gvd(tree)
    assert validate_certificate(odd_oni(tree), cert)


def test_certificate_construction_needs_unmixedness():
    mixed = Graph(
        Universe(["c", "a", "b", "la", "lb"]),
        [("c", "a"), ("a", "la"), ("c", "b"), ("b", "lb")],
    )
    with pytest.raises(InputError, match="TD-unmixed balanced forest"):
        certify_tree_gvd(mixed)


@st.composite
def grown_trees(draw):
    """o-extensions of the 7-vertex path, each at a vertex of height 1-3."""
    tree = o_sequence([])
    for i in draw(st.lists(st.integers(0, 63), max_size=8)):
        profile = heights(tree)
        picks = [v for v in tree.vertices if profile.height_of(v) in (1, 2, 3)]
        tree = o_extend(tree, picks[i % len(picks)])
    return tree


@st.composite
def random_trees(draw):
    n = draw(st.integers(1, 14))
    edges = oracles.random_tree_edges(random.Random(draw(st.integers(0, 2**16))), n)
    return Graph.from_vertices([str(i) for i in range(n)], edges)


@st.composite
def forests(draw):
    """Disjoint unions of grown and random trees with isolated vertices
    whose labels sort before, between and after the trees'."""
    parts = draw(st.lists(st.one_of(grown_trees(), random_trees()), min_size=1, max_size=3))
    vertices = draw(st.lists(st.sampled_from(["a", "h", "z"]), unique=True))
    edges = []
    for k, part in enumerate(parts):
        vertices += [f"g{k}_{v}" for v in part.vertices]
        edges += [(f"g{k}_{a}", f"g{k}_{b}") for a, b in part.edges]
    return Graph.from_vertices(vertices, edges)


def outcome(fn, graph):
    try:
        return fn(graph)
    except InputError as exc:
        return "InputError", str(exc)


def certified(certify):
    # dag_shape lists each distinct node once, in pre-order, with its
    # variable or base kind, and every later visit as the index of the
    # first.  That fixes the DAG, hence its JSON expansion, so comparing
    # certificate_to_json_obj too would add nothing; it would only expand
    # every shared node, which on a three-tree forest runs to millions.
    def run(graph):
        return dag_shape(certify(graph))

    return run


def shared_reference(forest):
    """The reference certificate with equal subtrees made one node:
    `certify_tree_gvd` returns the maximally shared DAG."""
    return oracles.shared(oracles.reference_certify_tree_gvd(forest))


@given(st.one_of(grown_trees(), random_trees(), forests()))
@settings(max_examples=200, deadline=None)
def test_certify_tree_gvd_matches_reference(graph):
    assert outcome(certified(certify_tree_gvd), graph) == outcome(
        certified(shared_reference), graph
    )
    assert outcome(find_split_vertex, graph) == outcome(
        oracles.reference_find_split_vertex, graph
    )


@given(st.one_of(grown_trees(), random_trees(), forests()))
@settings(max_examples=200, deadline=None)
@example(o_sequence(["3", "1", "4"]))
def test_split_components_pass_the_checked_split_vertex(graph):
    # certify_tree_gvd checks its forest once, at entry, and _split_vertex
    # checks nothing: every component it splits must pass the full check
    # and get the same vertex from it.
    seen = []

    def recording(adj, present):
        p = _split_vertex(adj, present)
        seen.append((adj, present, p))
        return p

    with mock.patch.object(gvd_module, "_split_vertex", recording):
        try:
            certify_tree_gvd(graph)
        except InputError:
            return
    for adj, present, p in seen:
        assert oracles.reference_split_vertex(adj, present) == p


def dag_nodes(cert):
    """The distinct node objects of a certificate."""
    seen = {}
    stack = [cert]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if isinstance(node, Split):
                stack += (node.c_branch, node.n_branch)
    return list(seen.values())


@pytest.mark.parametrize(
    "k, nodes, digest",
    [
        (10, 59, "49cf4b8b6dc2434a"),
        (14, 59, "26361745a8e0e21d"),
        (16, 398, "7c08593770438a2e"),
        (18, 496, "3d8305cb11de88f5"),
    ],
)
def test_certify_tree_gvd_pinned_on_large_grown_trees(k, nodes, digest):
    # Trees larger than the hypothesis draws: the node sharing and the
    # JSON bytes of their certificates are pinned.  The certificate built
    # shares as much as the one decoded from its JSON.
    cert = certify_tree_gvd(oracles.seeded_grown_tree(k))
    text = json.dumps(certificate_to_json_obj(cert), separators=(",", ":"))
    assert len(dag_nodes(cert)) == nodes
    assert len(dag_nodes(certificate_from_json_obj(json.loads(text)))) == nodes
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.fixture
def interned_splits(monkeypatch):
    """A dict, by id, of the Split nodes that gvd's `_interning`
    constructors return: each is built once, when first returned."""
    nodes = {}

    def counted_interning():
        make = _interning()

        def counted_make(y, c_node, n_node):
            node = make(y, c_node, n_node)
            nodes[id(node)] = node
            return node

        return counted_make

    monkeypatch.setattr(gvd_module, "_interning", counted_interning)
    return nodes


@pytest.mark.parametrize("k, splits", [(16, 395), (18, 493)])
def test_certify_tree_gvd_builds_only_the_splits_it_returns(interned_splits, k, splits):
    # No certificate is built for a component alone and then merged: every
    # Split built is a node of the result.
    cert = certify_tree_gvd(oracles.seeded_grown_tree(k))
    returned = {id(node) for node in dag_nodes(cert) if isinstance(node, Split)}
    assert len(interned_splits) == len(returned) == splits
    assert interned_splits.keys() == returned


def test_chain_deeper_than_the_stack_before_another_component():
    # The star's one generator, the product of its leaves, is peeled in a
    # loop, with the path's certificate as every N branch.
    leaves = [f"l{i:04d}" for i in range(sys.getrecursionlimit() + 100)]
    path_vertices = [f"z{i}" for i in range(7)]
    path_edges = list(zip(path_vertices, path_vertices[1:]))
    path = Graph.from_vertices(path_vertices, path_edges)
    forest = Graph.from_vertices(
        ["c", *leaves, *path_vertices], [("c", v) for v in leaves] + path_edges
    )
    path_cert = certify_tree_gvd(path)
    assert validate_certificate(odd_oni(path), path_cert)
    node, peeled = certify_tree_gvd(forest), []
    while isinstance(node.c_branch, Split):
        assert node.n_branch == path_cert
        peeled.append(node.variable)
        node = node.c_branch
    assert peeled == leaves[:-1]
    assert node == Split(leaves[-1], Base("unit"), path_cert)


@pytest.mark.parametrize("paths, digest", [(800, "45750ec0c632b10a"), (1600, "b74f58e22c7a8bab")])
def test_many_components_certify_under_the_default_recursion_limit(paths, digest):
    # The forest's components are folded in a loop, each onto the node of
    # those after it, so the stack is one component deep, and the memo
    # keys on a component and a node, not on the components left.  5
    # splits a path, less 3; the digests are of the certificates built
    # when the memo keyed on the tuple of remaining components.
    assert sys.getrecursionlimit() == 1000
    cert = certify_tree_gvd(oracles.disjoint_paths(paths))
    assert sum(isinstance(node, Split) for node in dag_nodes(cert)) == 5 * paths - 3
    assert dag_digest([cert]) == digest


def test_interned_splits_behave_as_constructed():
    # `_interning` builds each Split without the frozen dataclass __init__;
    # the search, the tree certifier and the decoder all use it.  Their
    # nodes must be those the public constructor builds, and still frozen.
    tree = oracles.seeded_grown_tree(6)
    cert = certify_tree_gvd(tree)
    certs = [cert, is_gvd(odd_oni(tree))[1], json_round_trip(cert), is_gvd(p6_odd_ideal())[1]]
    for node in (node for cert in certs for node in dag_nodes(cert)):
        if isinstance(node, Base):
            continue
        public = Split(node.variable, node.c_branch, node.n_branch)
        assert type(node) is Split and vars(node) == vars(public)
        assert node == public and hash(node) == hash(public) and repr(node) == repr(public)
        assert dataclasses.replace(node) == public
        assert dataclasses.replace(node, variable="z") == Split("z", node.c_branch, node.n_branch)
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.variable = "z"


def interleaved_forest(trees):
    """Disjoint union of the trees, their vertices numbered by dealing
    them out in turns, so that the components' positions interleave."""
    queues = [list(tree.vertices) for tree in trees]
    names = {}
    while any(queues):
        for k, queue in enumerate(queues):
            if queue:
                names[k, queue.pop(0)] = f"v{len(names):02d}"
    edges = [(names[k, a], names[k, b]) for k, tree in enumerate(trees) for a, b in tree.edges]
    return Graph.from_vertices(sorted(names.values()), edges)


def test_interleaved_forest_certificate_matches_reference():
    # The components' generators interleave, so the generators of the
    # components merged so far are not a concatenation of theirs:
    # certify_tree_gvd's piece merge filters them, in canonical order, out
    # of the piece's, which splits carry down from the forest's.
    forest = interleaved_forest([p6(), o_sequence(["3", "1", "4"]), twin_broom(), t_a()])
    assert certified(certify_tree_gvd)(forest) == certified(shared_reference)(forest)
    assert validate_certificate(odd_oni(forest), certify_tree_gvd(forest))


def dag_digest(certs):
    """The first 16 hex digits of a sha256 over the certificates, each
    numbering its distinct nodes in post-order (C branch first) and
    hashing one line per node: its base kind, or its variable and the
    numbers of its branches.  That fixes each DAG and its sharing.  The
    walk keeps its own stack, and nothing expands a shared node."""
    digest = hashlib.sha256()
    for cert in certs:
        number, stack = {}, [cert]
        while stack:
            node = stack[-1]
            if id(node) in number:
                stack.pop()
                continue
            if isinstance(node, Base):
                line = node.kind
            else:
                missing = [b for b in (node.n_branch, node.c_branch) if id(b) not in number]
                if missing:
                    stack += missing
                    continue
                line = f"{node.variable} {number[id(node.c_branch)]} {number[id(node.n_branch)]}"
            stack.pop()
            number[id(node)] = len(number)
            digest.update(f"{line}\n".encode())
        digest.update(f"root {number[id(cert)]}\n".encode())
    return digest.hexdigest()[:16]


def interleaved_forest_corpus(count, seed):
    """`count` interleaved forests of 1-3 trees, each the 7-vertex path
    after 0-6 o-extensions at vertices of height 1-3, drawn from one
    seeded generator.  A forest has at most 93 vertices, so the labels
    `interleaved_forest` deals out sort in the order they were dealt."""
    rng = random.Random(seed)
    for _ in range(count):
        trees = []
        for _ in range(rng.randint(1, 3)):
            tree = p6()
            for _ in range(rng.randrange(7)):
                profile = heights(tree)
                tree = o_extend(tree, rng.choice(
                    [v for v in tree.vertices if profile.height_of(v) in (1, 2, 3)]
                ))
            trees.append(tree)
        yield interleaved_forest(trees)


def test_certify_tree_gvd_pinned_on_interleaved_forests():
    # 300 forests whose components' positions interleave: the certificates
    # and their sharing are pinned, whatever order the certifier builds in.
    corpus = interleaved_forest_corpus(300, 29)
    assert dag_digest(certify_tree_gvd(forest) for forest in corpus) == "54347872580cac54"


@pytest.mark.parametrize(
    "picks", [["4", "p1_3", "p1_2", "4", "p1_2"], ["3", "1", "2", "p1_2", "2", "p1_2"]]
)
def test_pieces_with_one_ideal_share_a_node(picks):
    # Some pieces of these trees differ only in their odd vertices and have
    # the same generators, hence one ideal: they must share one node.
    tree = o_sequence(picks)
    assert certified(certify_tree_gvd)(tree) == certified(shared_reference)(tree)

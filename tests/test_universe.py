"""Ground-set, antichain, and dualization kernel tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oni_kit import (
    CapExceeded,
    InputError,
    SpernerFamily,
    SquareFreeIdeal,
    Universe,
    brute_force_transversals,
    minimal_odd_td_sets,
    minimal_transversals,
)
from oni_kit.universe import _minimal_in_order, maximal_masks, minimal_masks, sort_key

LABELS = tuple("abcdefgh")


@st.composite
def label_families(draw, max_elems: int = 8, max_sets: int = 6):
    n = draw(st.integers(1, max_elems))
    labels = LABELS[:n]
    count = draw(st.integers(0, max_sets))
    sets = [
        draw(st.sets(st.sampled_from(labels), min_size=1)) for _ in range(count)
    ]
    return labels, sets


def test_universe_sorts_and_indexes():
    u = Universe(["b", "a", "c"])
    assert u.labels == ("a", "b", "c")
    assert u.position("b") == 1
    assert u.mask_of(["c", "a"]) == 0b101
    assert u.labels_of(0b110) == ("b", "c")
    assert u.full_mask() == 0b111
    assert "c" in u and "z" not in u
    assert ["c"] not in u and 1 not in u


def test_universe_rejects_bad_labels():
    with pytest.raises(InputError, match="duplicate"):
        Universe(["x", "x"])
    with pytest.raises(InputError):
        Universe([""])
    with pytest.raises(InputError):
        Universe(["a"]).mask_of(["b"])


def test_family_canonical_order_and_rejection():
    u = Universe(["a", "b", "c"])
    fam = SpernerFamily.from_sets(u, [("a", "c"), ("b",)])
    assert fam.members == (("b",), ("a", "c"))
    with pytest.raises(InputError, match="not an antichain"):
        SpernerFamily.from_sets(u, [("a",), ("a", "b")])


# The error names the first comparable pair (a, b) of the pairwise scan over
# canonical order: the earliest a that lies in a later member, and the
# earliest such b.
@pytest.mark.parametrize(
    "sets, pair",
    [
        # the empty set lies in every other member
        ([("c",), (), ("a", "b")], "{} is contained in {c}"),
        # a chain of three sets
        ([("a", "b", "c"), ("a",), ("a", "b")], "{a} is contained in {a, b}"),
        # {b, c} is the first member with a subset, but {a} comes first
        ([("a", "d", "e"), ("b", "c"), ("b",), ("a",)], "{a} is contained in {a, d, e}"),
        # {a, b, c} holds {a, c} and {b}; the scan names {b}
        ([("a", "b", "c"), ("a", "c"), ("b",)], "{b} is contained in {a, b, c}"),
        # two pairs of equal size; the first in canonical order is named
        ([("d", "e"), ("c", "d", "e"), ("a", "b"), ("a", "b", "c")], "{a, b} is contained in {a, b, c}"),
        # labels sort as strings, so x10 comes before x9
        ([("x9", "x10", "y"), ("x9",), ("x10",)], "{x10} is contained in {x10, x9, y}"),
    ],
)
def test_family_rejection_names_the_first_pair_of_the_scan(sets, pair):
    u = Universe(["a", "b", "c", "d", "e", "x9", "x10", "y"])
    with pytest.raises(InputError) as caught:
        SpernerFamily.from_sets(u, sets)
    assert str(caught.value) == f"family is not an antichain: {pair}"


# Masks of 0-80 bits.  Sparse ones give many equal-size pairs whose keys
# have different byte lengths; dense ones give long keys.
wide_masks = st.one_of(
    st.sets(st.integers(0, 79), max_size=4).map(lambda ps: sum(1 << p for p in ps)),
    st.integers(0, (1 << 80) - 1),
)


@given(st.lists(wide_masks, max_size=25))
@example([0, 1 << 79, 1 << 8, 1 << 7, 0xFF, 0xFF << 72, (1 << 79) | 1, (1 << 8) | 2, 0b11, 0])
@settings(max_examples=300, deadline=None)
def test_canonical_order_matches_oracle(masks):
    assert sorted(masks, key=sort_key) == sorted(masks, key=oracles.reference_sort_key)
    assert list(minimal_masks(masks)) == oracles.reference_minimal_masks(masks)
    assert list(maximal_masks(masks)) == oracles.reference_maximal_masks(masks)


WIDE = Universe(f"v{i:03d}" for i in range(300))
wide_300 = st.one_of(
    st.sets(st.integers(0, 299), min_size=1, max_size=5).map(lambda ps: sum(1 << p for p in ps)),
    st.integers(1, (1 << 300) - 1),
)


@st.composite
def masks_with_repeats_and_chains(draw):
    """Masks on up to 300 positions, with repeats and with non-empty
    subsets and supersets of drawn masks, so comparable pairs are common,
    and the empty mask in about one list in ten."""
    masks = draw(st.lists(wide_300, max_size=20))
    for m in list(masks):
        kind = draw(st.sampled_from(("none", "repeat", "subset", "superset")))
        if kind == "repeat":
            masks.append(m)
        elif kind == "subset":
            # keep one bit of m, so that the subset is not empty
            keep = draw(st.sampled_from([p for p in range(300) if m >> p & 1]))
            masks.append(m & draw(wide_300) | 1 << keep)
        elif kind == "superset":
            masks.append(m | draw(wide_300))
    if draw(st.sampled_from(range(10))) == 9:
        masks.append(0)
    return draw(st.permutations(masks))


@given(masks_with_repeats_and_chains())
@example([])
@example([0])
@example([0, 0, 1 << 299, 1 << 299])
@example([1 << 299 | 1, 1 << 299, 1, 3, 3 << 298])
@settings(max_examples=300, deadline=None)
def test_subset_index_matches_oracles(masks):
    assert list(minimal_masks(masks)) == oracles.reference_minimal_masks(masks)
    assert list(maximal_masks(masks)) == oracles.reference_maximal_masks(masks)
    distinct = set(masks)
    sets = [WIDE.labels_of(m) for m in distinct]
    expected = oracles.reference_antichain_error(WIDE, distinct)
    assert (expected is None) == oracles.reference_is_sperner(WIDE, sets)
    if expected is None:
        assert SpernerFamily(WIDE, masks).masks == minimal_masks(masks)
    else:
        with pytest.raises(InputError) as caught:
            SpernerFamily(WIDE, masks)
        assert str(caught.value) == expected


@st.composite
def size_classes(draw):
    """Distinct masks in non-decreasing size, shuffled inside each size, as
    the fold hands them to `_minimal_in_order`: mostly one to three large
    classes of one size each, on a narrow window of positions (so that
    members of different classes are often comparable) that may sit high
    in a wide mask."""
    width = draw(st.integers(1, 10))
    sizes = draw(st.lists(st.integers(0, width), min_size=1, max_size=3, unique=True))
    shift = draw(st.sampled_from((0, 0, 70)))
    masks = []
    for size in sorted(sizes):
        subsets = st.sets(st.integers(0, width - 1), min_size=size, max_size=size)
        drawn = draw(st.sets(subsets.map(lambda ps: sum(1 << p + shift for p in ps)), max_size=60))
        masks += draw(st.permutations(sorted(drawn)))
    return masks


@given(size_classes())
@example([0, 1, 2])
@example([1, 2, 3, 5, 6])
@settings(max_examples=300, deadline=None)
def test_minimal_in_order_is_size_order_blind_inside_a_class(masks):
    kept = _minimal_in_order(masks)
    assert sorted(kept, key=oracles.reference_sort_key) == oracles.reference_minimal_masks(masks)
    chosen = set(kept)
    assert kept == [m for m in masks if m in chosen]  # in input order


@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_dualization_of_disjoint_pairs_makes_one_size_class(k):
    """k disjoint pairs have 2^k minimal transversals, all of size k."""
    u = Universe(f"v{i:02d}" for i in range(2 * k))
    pairs = SpernerFamily(u, (0b11 << 2 * i for i in range(k)))
    tau = minimal_transversals(pairs)
    assert len(tau) == 2**k and {m.bit_count() for m in tau.masks} == {k}
    assert tau == brute_force_transversals(pairs)


def test_constructor_on_grown_tree_16s_odd_td_sets():
    """7,728 sets; one proper subset added makes the first pair of the scan."""
    tds = minimal_odd_td_sets(oracles.seeded_grown_tree(16))
    assert len(tds) == 7728
    assert SpernerFamily(tds.universe, tds.masks) == tds
    first = tds.masks[0]
    inner = first ^ 1 << first.bit_length() - 1
    masks = tds.masks + (inner,)
    expected = oracles.reference_antichain_error(tds.universe, masks)
    assert expected is not None
    with pytest.raises(InputError) as caught:
        SpernerFamily(tds.universe, masks)
    assert str(caught.value) == expected


def test_family_json_round_trip():
    u = Universe(["p", "q"])
    fam = SpernerFamily.from_sets(u, [("p",), ("q",)])
    assert SpernerFamily.from_json_obj(fam.to_json_obj()) == fam
    with pytest.raises(InputError, match='"universe" and "sets"'):
        SpernerFamily.from_json_obj({"universe": ["p"]})


@given(label_families())
@settings(max_examples=200, deadline=None)
def test_from_supports_generators_match_oracle(case):
    labels, sets = case
    fam = SquareFreeIdeal.from_supports(Universe(labels), sets).generators
    assert {frozenset(m) for m in fam.members} == oracles.minimalize(
        frozenset(s) for s in sets
    )


@given(label_families())
@settings(max_examples=200, deadline=None)
def test_dualization_matches_oracle_and_involutes(case):
    labels, sets = case
    fam = SquareFreeIdeal.from_supports(Universe(labels), sets).generators
    tau = minimal_transversals(fam)
    assert {frozenset(m) for m in tau.members} == oracles.transversals_oracle(
        fam.members
    )
    assert minimal_transversals(tau) == fam


def test_dualization_degenerate_families():
    u = Universe(["a", "b"])
    nothing = SpernerFamily(u, ())
    blocked = SpernerFamily(u, (0,))
    assert minimal_transversals(nothing).masks == (0,)
    assert minimal_transversals(blocked).masks == ()
    assert minimal_transversals(minimal_transversals(nothing)) == nothing
    empty_universe = SpernerFamily(Universe([]), ())
    assert minimal_transversals(empty_universe).masks == (0,)


def test_brute_force_agrees_and_respects_cap():
    u = Universe([f"v{i}" for i in range(6)])
    fam = SpernerFamily.from_sets(
        u, [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v4", "v5")]
    )
    assert brute_force_transversals(fam) == minimal_transversals(fam)
    wide = Universe([f"w{i:02d}" for i in range(21)])
    big = SpernerFamily.from_sets(wide, [tuple(wide.labels)])
    with pytest.raises(CapExceeded, match="20 support elements; got 21"):
        brute_force_transversals(big)

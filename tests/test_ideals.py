"""Square-free monomial ideal arithmetic tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oni_kit import InputError, SimplicialComplex, SpernerFamily, SquareFreeIdeal, Universe

LABELS = tuple("abcdef")


def build(labels, supports):
    return SquareFreeIdeal.from_supports(Universe(labels), supports)


@st.composite
def ideals(draw, max_elems: int = 5, max_gens: int = 4):
    n = draw(st.integers(1, max_elems))
    labels = LABELS[:n]
    count = draw(st.integers(0, max_gens))
    supports = [
        draw(st.sets(st.sampled_from(labels))) for _ in range(count)
    ]
    return labels, supports


def test_degenerate_forms():
    zero = build("ab", [])
    unit = build("ab", [[]])
    assert zero.is_zero and not zero.is_unit
    assert unit.is_unit and not unit.is_zero
    # the empty support swallows everything else
    assert build("ab", [["a"], []]).is_unit


def test_minimal_generators_form_an_antichain():
    ideal = build("abc", [["a"], ["a", "b"], ["b", "c"]])
    assert ideal.generators.members == (("a",), ("b", "c"))


@given(ideals(), ideals())
@settings(max_examples=150, deadline=None)
def test_sum_and_intersection_membership(case_a, case_b):
    labels = LABELS[: max(len(case_a[0]), len(case_b[0]))]
    left = build(labels, case_a[1])
    right = build(labels, case_b[1])
    total = left.sum(right)
    meet = left.intersect(right)
    for mask in range(1 << len(labels)):
        m = [labels[i] for i in range(len(labels)) if mask >> i & 1]
        in_left, in_right = (oracles.contains_monomial(i, m) for i in (left, right))
        assert oracles.contains_monomial(total, m) == (in_left or in_right)
        assert oracles.contains_monomial(meet, m) == (in_left and in_right)


def test_cross_universe_operations_are_rejected():
    with pytest.raises(InputError, match="different universes"):
        build("ab", [["a"]]).sum(build("abc", [["a"]]))
    with pytest.raises(InputError, match="different universes"):
        build("ab", [["a"]]).intersect(build("bc", [["b"]]))


@given(ideals())
@settings(max_examples=150, deadline=None)
def test_minimal_primes_match_transversal_oracle(case):
    labels, supports = case
    ideal = build(labels, supports)
    if ideal.is_unit:
        with pytest.raises(InputError, match="unit ideal has no primes"):
            ideal.minimal_primes()
        return
    if ideal.is_zero:
        # the only minimal prime of the zero ideal has no variable support
        assert ideal.minimal_primes().masks == ()
        return
    primes = {frozenset(p) for p in ideal.minimal_primes().members}
    assert primes == oracles.transversals_oracle(ideal.generators.members)


def test_unmixedness():
    assert build("abcd", [["a", "b"], ["c", "d"]]).is_unmixed()
    assert build("abc", [["a"], ["b", "c"]]).is_unmixed()
    assert not build("abc", [["a", "b"], ["b", "c"]]).is_unmixed()
    assert build("ab", []).is_unmixed()
    with pytest.raises(InputError, match="unit ideal has no primes"):
        build("ab", [[]]).is_unmixed()


def test_ideals_and_complexes_compare_and_hash_as_their_families():
    # equal exactly when the families are, with the family's hash, and
    # never equal across the three types, whatever their masks
    u = Universe("abc")
    family = SpernerFamily(u, [0b011, 0b100])
    ideal = SquareFreeIdeal(SpernerFamily(u, [0b100, 0b011]))
    complex_ = SimplicialComplex(u, [0b011, 0b100])
    assert ideal == SquareFreeIdeal(family) and hash(ideal) == hash(family)
    assert complex_ == SimplicialComplex._of(family) and hash(complex_) == hash(family)
    assert hash(family) == hash((u.labels, family.masks))
    for a, b in ((ideal, complex_), (ideal, family), (complex_, family)):
        assert a != b and b != a
    wider = Universe("abcd")
    assert ideal != SquareFreeIdeal(SpernerFamily(wider, family.masks))
    assert complex_ != SimplicialComplex(wider, family.masks)


def test_extension():
    small = build("ab", [["a", "b"]])
    wide = small.extended_to(Universe(["a", "b", "c"]))
    assert wide.universe.labels == ("a", "b", "c")
    assert wide.generators.members == (("a", "b"),)
    with pytest.raises(InputError, match="missing label"):
        wide.extended_to(Universe(["a", "b"]))


def test_json_round_trip_and_flag_checks():
    for ideal in (
        build("abc", [["a", "b"], ["c"]]),
        build("a", []),
        build("a", [[]]),
    ):
        assert SquareFreeIdeal.from_json_obj(ideal.to_json_obj()) == ideal
    with pytest.raises(InputError, match='"universe" and "generators"'):
        SquareFreeIdeal.from_json_obj({"universe": ["a"]})
    with pytest.raises(InputError, match='flag "zero" contradicts'):
        SquareFreeIdeal.from_json_obj(
            {"universe": ["a"], "generators": [["a"]], "zero": True}
        )
    with pytest.raises(InputError, match='flag "unit" contradicts'):
        SquareFreeIdeal.from_json_obj(
            {"universe": ["a"], "generators": [], "unit": True}
        )
    # flags must be JSON booleans: [] and "no" are neither
    with pytest.raises(InputError, match='flag "zero" must be true or false'):
        SquareFreeIdeal.from_json_obj({"universe": ["a"], "generators": [], "zero": []})
    with pytest.raises(InputError, match='flag "unit" must be true or false'):
        SquareFreeIdeal.from_json_obj(
            {"universe": ["a"], "generators": [["a"]], "unit": "no"}
        )

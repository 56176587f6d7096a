"""Simplicial complexes by facets, vertex decomposability, the
Stanley-Reisner bridges to square-free ideals, and simplicial forests,
trees and cycles, decided by good-leaf removal.

Three kinds of complex are distinguished: VOID (no faces at all), EMPTY
(only the empty face), and ORDINARY.  VOID corresponds to the unit ideal
under the Stanley-Reisner map, EMPTY to the ideal of all variables.

The shedding certificate encoder is one `universe._fold`, which builds
one dict per distinct node and does not recurse; the decoder, the VD
search and its replay recurse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import InputError
from .ideals import SquareFreeIdeal
from .universe import (
    _MISSING,
    SpernerFamily,
    Universe,
    _bits,
    _component_masks,
    _eliminates,
    _fold,
    _json_sets,
    _masks_into,
    maximal_masks,
    minimal_transversals,
)

VOID = "void"
EMPTY = "empty"
ORDINARY = "ordinary"


class SimplicialComplex:
    __slots__ = ("universe", "facets")

    def __init__(self, universe: Universe, facet_masks: Iterable[int]):
        self.universe = universe
        self.facets = SpernerFamily._canonical(universe, maximal_masks(facet_masks))

    @classmethod
    def _of(cls, facets: SpernerFamily) -> "SimplicialComplex":
        """The complex whose facets are `facets`, an antichain already."""
        cx = object.__new__(cls)
        cx.universe, cx.facets = facets.universe, facets
        return cx

    @classmethod
    def from_facets(
        cls, universe: Universe, facets: Iterable[Iterable[str]]
    ) -> "SimplicialComplex":
        """Build from faces; non-maximal ones are absorbed."""
        return cls(universe, (universe.mask_of(f) for f in facets))

    @property
    def kind(self) -> str:
        if not self.facets.masks:
            return VOID
        if self.facets.masks == (0,):
            return EMPTY
        return ORDINARY

    def is_pure(self) -> bool:
        sizes = {m.bit_count() for m in self.facets.masks}
        return len(sizes) <= 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        if self.kind == VOID:
            return "SimplicialComplex(void)"
        inner = ", ".join("{" + ", ".join(s) + "}" for s in self.facets.members)
        return f"SimplicialComplex(<{inner}>)"

    def extended_to(self, universe: Universe) -> "SimplicialComplex":
        """The same facets read over a larger universe, still in canonical
        order (see _masks_into); the added labels carry no faces."""
        masks = _masks_into(self.universe, universe, self.facets.masks)
        return SimplicialComplex._of(SpernerFamily._canonical(universe, masks))

    def to_json_obj(self) -> dict:
        return {
            "universe": list(self.universe.labels),
            "facets": [list(f) for f in self.facets.members],
            "kind": self.kind,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SimplicialComplex":
        cx = cls.from_facets(*_json_sets(obj, "complex", "universe", "facets"))
        kind = obj.get("kind", cx.kind)
        if not isinstance(kind, str):
            raise InputError('complex JSON "kind" must be a string')
        if kind != cx.kind:
            raise InputError(f'complex JSON kind "{kind}" contradicts the facets')
        return cx


def deletion(cx: SimplicialComplex, face: Iterable[str]) -> SimplicialComplex:
    """Faces disjoint from the given set; facets are the maximal truncations."""
    gone = cx.universe.mask_of(face)
    return SimplicialComplex(cx.universe, (f & ~gone for f in cx.facets.masks))


def link(cx: SimplicialComplex, face: Iterable[str]) -> SimplicialComplex:
    """Link of a face; the void complex when the set is not a face."""
    mask = cx.universe.mask_of(face)
    holders = [f & ~mask for f in cx.facets.masks if f & mask == mask]
    return SimplicialComplex(cx.universe, holders)


def join(left: SimplicialComplex, right: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join over the disjoint union of the two universes."""
    overlap = set(left.universe.labels) & set(right.universe.labels)
    if overlap:
        raise InputError(
            f"join requires disjoint universes; shared: {', '.join(sorted(overlap))}"
        )
    combined = Universe(left.universe.labels + right.universe.labels)
    lefts = _masks_into(left.universe, combined, left.facets.masks)
    rights = _masks_into(right.universe, combined, right.facets.masks)
    return SimplicialComplex(combined, (a | b for a in lefts for b in rights))


def _ordinary_facets(cx: SimplicialComplex, needs: str) -> tuple[int, ...]:
    """The facet masks of an ordinary complex; for VOID and EMPTY, an
    InputError saying that what `needs` names needs an ordinary one."""
    if cx.kind != ORDINARY:
        raise InputError(f"{needs} an ordinary complex")
    return cx.facets.masks


def _shed(
    facets: tuple[int, ...], bit: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(deletion facets, link facets) at the vertex `bit` if it sheds, else
    None; `facets` is in canonical order, and so are both results.

    The vertex sheds when every facet of its deletion is a facet of the
    complex: each facet through it, less the vertex, lies in a facet that
    misses it, and those are then the deletion's facets.  The link's facets
    are the facets through the vertex less that one vertex, which keeps
    them an antichain in canonical order.  Both stay pure when the complex
    is, since the deletion keeps a subset of the facets and the link's
    facets all lose the same vertex; so purity is checked once, at the root.

    One loop sorts the facets into the two parts, and each part becomes a
    tuple once: this runs at every node of the VD search and its replay,
    where two generator expressions over the facets cost more than the
    bit tests they wrap.
    """
    kept, link_facets = [], []
    for f in facets:
        if f & bit:
            link_facets.append(f ^ bit)
        else:
            kept.append(f)
    for h in link_facets:
        for g in kept:
            if h & g == h:
                break
        else:
            return None
    return tuple(kept), tuple(link_facets)


def is_shedding_vertex(cx: SimplicialComplex, v: str) -> bool:
    """Is every facet of the deletion at v a facet of the complex itself?"""
    facets = _ordinary_facets(cx, "shedding test needs")
    return _shed(facets, 1 << cx.universe.position(v)) is not None


@dataclass(frozen=True)
class Leaf:
    kind: str  # "simplex" | "empty"


@dataclass(frozen=True)
class Shed:
    vertex: str
    deletion: "SheddingCertificate"
    link: "SheddingCertificate"


SheddingCertificate = Union[Leaf, Shed]

# One Leaf per kind, shared by every certificate the library builds.
_LEAVES = {kind: Leaf(kind) for kind in ("simplex", "empty")}
_SIMPLEX, _EMPTY_LEAF = _LEAVES["simplex"], _LEAVES["empty"]
_new = object.__new__


def _make_shed(vertex: str, deletion: SheddingCertificate, link: SheddingCertificate) -> Shed:
    """`Shed(vertex, deletion, link)`, made by `object.__new__` and three
    writes to its `__dict__` in field order: the frozen dataclass
    `__init__` sets each field through `object.__setattr__` and costs
    about twice as much.  Equality, hash, repr and `dataclasses.replace`
    are the constructor's, and assigning to a field still raises
    `FrozenInstanceError`."""
    node = _new(Shed)
    fields = node.__dict__
    fields["vertex"], fields["deletion"], fields["link"] = vertex, deletion, link
    return node


def shedding_certificate_to_json(cert: SheddingCertificate) -> dict:
    """The certificate as nested JSON objects, built by one `_fold`, so
    once per distinct node and with no recursion: the sub-dicts are shared
    wherever the certificate shares nodes, and `json.dumps` writes the
    tree expansion."""
    return _fold(cert, "deletion", "link", lambda node: {"leaf": node.kind},
                 lambda node, d, k: {"shed": node.vertex, "del": d, "lk": k})


_LEAF_KEYS = frozenset({"leaf"})
_SHED_KEYS = frozenset({"shed", "del", "lk"})


def shedding_certificate_from_json(obj: dict) -> SheddingCertificate:
    if not isinstance(obj, dict):
        raise InputError("certificate must be a JSON object")
    keys = obj.keys()
    if keys == _LEAF_KEYS:
        kind = obj["leaf"]
        leaf = _LEAVES.get(kind) if isinstance(kind, str) else None
        if leaf is None:
            raise InputError(f"unknown leaf kind {kind!r}")
        return leaf
    if keys == _SHED_KEYS:
        if not isinstance(obj["shed"], str):
            raise InputError("shed vertex must be a string label")
        return _make_shed(
            obj["shed"],
            shedding_certificate_from_json(obj["del"]),
            shedding_certificate_from_json(obj["lk"]),
        )
    raise InputError(
        'certificate node needs exactly the key "leaf" or "shed" with "del" and "lk" subtrees'
    )


def is_vertex_decomposable(
    cx: SimplicialComplex,
) -> tuple[bool, Optional[SheddingCertificate]]:
    """Decide vertex decomposability of a pure complex, with a replayable
    certificate on success.

    Candidate shedding vertices are tried in canonical label order and only
    among vertices lying in some facet (others make no progress), so the
    returned certificate is the canonically first witness.  Subproblems are
    memoized per call on their facet form.  Purity is checked once, at the
    root, since `_shed` keeps it.  A complex with at most one facet is a
    leaf: the `empty` leaf for VOID, the `simplex` leaf for EMPTY and for
    every simplex, one `Leaf` per kind shared by every certificate, as GVD
    certificates share one `Base` per kind.

    Cone points, the vertices in every facet, are not tried either: the
    loop that ORs a node's facets into its support ANDs them too.  A cone
    point never sheds, since every facet of its deletion misses it and so
    is no facet of the complex (cf. Provan and Billera, Math. Oper. Res.
    1980).  `_shed` rejects it at its first link facet, as its deletion
    keeps no facet, so the loop tries the same vertices with the same
    verdicts and returns the same certificate with the same sharing.
    """
    if not cx.is_pure():
        raise InputError("vertex decomposability is defined for pure complexes")

    labels = cx.universe.labels
    facet_set_cache: dict[tuple[int, ...], Optional[SheddingCertificate]] = {}

    def search(facets: tuple[int, ...]) -> Optional[SheddingCertificate]:
        result = facet_set_cache.get(facets, _MISSING)
        if result is not _MISSING:
            return result
        if len(facets) <= 1:
            facet_set_cache[facets] = result = _SIMPLEX if facets else _EMPTY_LEAF
            return result
        support, cones = 0, -1
        for f in facets:
            support |= f
            cones &= f
        candidates = support ^ cones  # no cone point sheds (see above)
        result = None
        while candidates:  # popped inline, lowest first: no `_bits` generator per node
            bit = candidates & -candidates
            candidates ^= bit
            parts = _shed(facets, bit)
            if parts is None:
                continue
            cert_del = search(parts[0])
            if cert_del is None:
                continue
            cert_link = search(parts[1])
            if cert_link is None:
                continue
            result = _make_shed(labels[bit.bit_length() - 1], cert_del, cert_link)
            break
        facet_set_cache[facets] = result
        return result

    found = search(cx.facets.masks)
    return (found is not None), found


def validate_shedding_certificate(
    cx: SimplicialComplex, cert: SheddingCertificate
) -> bool:
    """Replay a certificate: every Shed node must pass one `_shed` test on
    an ordinary complex, every Leaf must match its base case, and any other
    node is rejected.  Purity is checked once, at the root, because `_shed`
    keeps it."""
    bit_of = {lab: 1 << p for p, lab in enumerate(cx.universe.labels)}
    return cx.is_pure() and _replay(bit_of, cx.facets.masks, cert)


def _replay(bit_of: dict[str, int], facets: tuple[int, ...], cert: SheddingCertificate) -> bool:
    """Does `cert` certify the complex with facets `facets`?  `bit_of` maps
    each universe label to its bit; any other vertex, a non-string one
    included, is rejected."""
    if isinstance(cert, Leaf):
        if cert.kind == "empty":
            return facets in ((), (0,))
        return cert.kind == "simplex" and len(facets) == 1
    if not isinstance(cert, Shed) or facets in ((), (0,)):
        return False
    bit = bit_of.get(cert.vertex, 0) if isinstance(cert.vertex, str) else 0
    parts = _shed(facets, bit) if bit else None
    return parts is not None and (
        _replay(bit_of, parts[0], cert.deletion) and _replay(bit_of, parts[1], cert.link)
    )


def _complements(family: SpernerFamily) -> SpernerFamily:
    """The members' complements in the family's universe, the step between
    facets and minimal non-faces in both Stanley-Reisner directions.  A set
    is a non-face exactly when it meets every facet complement, so the
    minimal non-faces are the minimal transversals of the facet complements;
    dualization is an involution, so the facets are the complements of the
    minimal transversals of the minimal non-faces.

    Complement-of-dual needs no special case.  The unit ideal, the family
    {∅}, has no transversal, as nothing meets ∅, so it gets no facet: VOID.
    The zero ideal, the empty family, has the one transversal ∅, whose
    complement is the full simplex.

    Read backwards, the complements are a canonical antichain in canonical
    order.  Complementing is one-to-one and reverses inclusion, so an
    antichain maps to one.  It also reverses canonical order: sizes s < t
    become n - s > n - t, and two sets of one size differ at the same
    positions as their complements, so the lowest such position, held by
    the set that comes first, is held by the other complement."""
    full = family.universe.full_mask()
    masks = tuple(full & ~m for m in reversed(family.masks))
    return SpernerFamily._canonical(family.universe, masks)


def stanley_reisner_ideal(cx: SimplicialComplex) -> SquareFreeIdeal:
    """Ideal of minimal non-faces: the minimal transversals of the facet
    complements.  VOID maps to the unit ideal, the full simplex to zero."""
    return SquareFreeIdeal(minimal_transversals(_complements(cx.facets)))


def stanley_reisner_complex(ideal: SquareFreeIdeal) -> SimplicialComplex:
    """Facets are the complements of the minimal primes, the generators'
    minimal transversals; inverse of stanley_reisner_ideal.  Unit maps to
    VOID and zero to the full simplex (see _complements)."""
    return SimplicialComplex._of(_complements(minimal_transversals(ideal.generators)))


def facet_ideal(cx: SimplicialComplex) -> SquareFreeIdeal:
    _ordinary_facets(cx, "facet ideal needs")
    return SquareFreeIdeal(cx.facets)


def minimal_vertex_covers(cx: SimplicialComplex) -> SpernerFamily:
    _ordinary_facets(cx, "vertex covers need")
    return minimal_transversals(cx.facets)


def find_leaf(
    cx: SimplicialComplex,
) -> Optional[tuple[tuple[str, ...], Optional[tuple[str, ...]]]]:
    """Canonically first leaf facet with one of its joints, if any; the
    joint is None for a lone facet."""
    facets, labels = _ordinary_facets(cx, "leaf search needs"), cx.universe.labels_of
    if len(facets) == 1:
        return labels(facets[0]), None
    for i, leaf in enumerate(facets):
        outside = 0
        for j, other in enumerate(facets):
            if j != i:
                outside |= other
        touching = leaf & outside
        for j, other in enumerate(facets):
            if j != i and touching & ~other == 0:
                return labels(leaf), labels(other)
    return None


def _meets(facets: tuple[int, ...]) -> list[int]:
    """Per facet, the mask of the facets that meet it, itself included."""
    return [sum(1 << j for j, g in enumerate(facets) if f & g) for f in facets]


def _is_forest(facets: tuple[int, ...], meets: list[int], present: int) -> bool:
    """Does every nonempty subcollection of the `present` facets have a
    leaf?  Decided by `_eliminates` on `meets`, `_meets(facets)`, removing
    good leaves: facets whose intersections with the facets left, their
    own included, form a chain.  Among two or more facets, a good leaf
    meets the others inside the other it meets most, a joint, so it is a
    leaf; and it stays good as other facets go, as part of a chain is a
    chain.  Herzog, Hibi, Trung and Zheng (Trans. AMS 2008) prove that
    every forest has a good leaf, and a subcollection of a forest is a
    forest, so on a forest the removal never gets stuck.  If it removes
    every facet, each subcollection has a leaf: its member removed first
    was a good leaf of facets holding the subcollection, so of the
    subcollection too."""

    def good_leaf(i: int, left: int) -> bool:
        leaf = facets[i]
        cuts = sorted({leaf & facets[j] for j in _bits(meets[i] & left)}, key=int.bit_count)
        return all(a & ~b == 0 for a, b in zip(cuts, cuts[1:]))

    return _eliminates(meets, present, good_leaf)


def is_simplicial_forest(cx: SimplicialComplex) -> bool:
    """Every nonempty facet subcollection has a leaf (good-leaf removal)."""
    facets = _ordinary_facets(cx, "forest/cycle checks need")
    return _is_forest(facets, _meets(facets), (1 << len(facets)) - 1)


def is_connected_complex(cx: SimplicialComplex) -> bool:
    """Facet connectivity through shared vertices; degenerate kinds count
    as connected."""
    facets = cx.facets.masks
    return len(_component_masks(_meets(facets), (1 << len(facets)) - 1)) <= 1


def is_simplicial_tree(cx: SimplicialComplex) -> bool:
    return is_simplicial_forest(cx) and is_connected_complex(cx)


def _strong_neighbor_order(facets: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Circular order of facets in which consecutive ones are strong
    neighbors (their intersection lies in no third facet); None when the
    strong-neighbor relation is not a single cycle."""
    n = len(facets)
    strong = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            meet = facets[i] & facets[j]
            if not any(
                meet & ~facets[k] == 0 for k in range(n) if k != i and k != j
            ):
                strong[i].add(j)
                strong[j].add(i)
    if any(len(s) != 2 for s in strong):
        return None
    order = [0]
    prev = -1
    while True:
        nxt = min(x for x in strong[order[-1]] if x != prev)
        if nxt == 0:
            break
        prev = order[-1]
        order.append(nxt)
    return tuple(order) if len(order) == n else None


def is_cycle(cx: SimplicialComplex) -> bool:
    """No leaf overall, yet every proper nonempty subcollection has one;
    such complexes carry a circular strong-neighbor enumeration."""
    return cycle_order(cx) is not None


def cycle_order(cx: SimplicialComplex) -> Optional[tuple[tuple[str, ...], ...]]:
    """The circular facet enumeration of a cycle, None for non-cycles.  The
    proper subcollections are exactly the subcollections of the complexes
    with one facet F removed, so each of those must be a forest.  A complex
    with a leaf is no cycle, and the leaf scan runs first because it stops
    at the first leaf, where the n deletions would take n forest tests."""
    facets = _ordinary_facets(cx, "forest/cycle checks need")
    if len(facets) < 3 or find_leaf(cx) is not None:
        return None
    meets, full = _meets(facets), (1 << len(facets)) - 1
    if not all(_is_forest(facets, meets, full ^ 1 << i) for i in range(len(facets))):
        return None
    order = _strong_neighbor_order(facets)
    return None if order is None else tuple(cx.universe.labels_of(facets[i]) for i in order)

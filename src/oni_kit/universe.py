"""Labelled ground sets, bitmask kernels, and Sperner families.

Every structure in this package lives over a Universe: a fixed tuple of
string labels in lexicographic order.  Sets of labels are stored as int
bitmasks over label positions, so subset tests and boolean operations are
single machine operations and every iteration order is deterministic.
Masks stay internal: every set of labels the API returns is a tuple in
universe order, built by `Universe.labels_of`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapExceeded, InputError

BRUTE_FORCE_SUPPORT_CAP = 20

# The default of a memo's one `dict.get` probe, where None is a memoized
# verdict: a hit then hashes its key once, not twice as `in` and `[]` do.
_MISSING = object()


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sweep(adj: Sequence[int], present: int, layer: int) -> list[int]:
    """Distance layers from `layer` inside `present`, by one frontier
    sweep: each layer is the unseen neighbours of the one before."""
    strata = []
    seen = layer
    while layer:
        strata.append(layer)
        reached, rest = 0, layer
        while rest:  # popped inline: a `_bits` generator per layer slows component walks
            low = rest & -rest
            reached |= adj[low.bit_length() - 1]
            rest ^= low
        layer = reached & present & ~seen
        seen |= layer
    return strata


def _component_masks(adj: Sequence[int], present: int) -> tuple[int, ...]:
    """Connected components of the graph with adjacency masks `adj`,
    restricted to the `present` positions, as masks ordered by their lowest
    position.  Each component is the union of the layers `_sweep` reaches
    from the lowest position not yet in a component, swept inside the
    positions left."""
    out = []
    while present:
        out.append(sum(_sweep(adj, present, present & -present)))
        present ^= out[-1]
    return tuple(out)


def _eliminates(
    adj: Sequence[int], present: int, removable: Callable[[int, int], bool]
) -> bool:
    """Remove the `present` items one at a time while `removable(i, left)`
    allows, `left` being the items not yet removed; True when none is left.
    The first scan checks every item, each later one only the items left
    that neighbour, in `adj`, an item the scan before removed.  That is
    exact because `removable` reads `left` only through `adj[i] & left`, so
    only a removed neighbour can change whether an item can go: an item not
    rescanned still cannot, and the loop stops exactly when no item left
    can."""
    left = todo = present
    while todo:
        near = 0
        for i in _bits(todo):
            if removable(i, left):
                left ^= 1 << i
                near |= adj[i]
        todo = near & left
    return not left


def _fold(root, first: str, second: str, leaf: Callable, inner: Callable):
    """Fold the binary DAG below `root` from its leaves up.  A node with
    the attribute `first` has the two branches `first` and `second`, and
    its value is `inner(node, first's value, second's value)`; any other
    node is a leaf, of value `leaf(node)`.  Values are kept by node
    identity, which the root keeps from being reused, so each distinct
    node takes one step however often it is shared.  The walk runs over an
    explicit stack, so it holds at any depth.  An inner node not yet done
    goes back on the stack with a None marker and its two branches above
    it; when the marker comes up, both branches are done, and so is the
    node.  Until then every node above it on the stack lies below it in
    the DAG, so a second copy of it, pushed by another parent, is taken up
    only once it is done."""
    values: dict[int, object] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            node = stack.pop()
            a, b = values[id(getattr(node, first))], values[id(getattr(node, second))]
            values[id(node)] = inner(node, a, b)
        elif id(node) not in values:
            a = getattr(node, first, None)
            if a is None:
                values[id(node)] = leaf(node)
            else:
                stack += (node, None, getattr(node, second), a)
    return values[id(root)]


class Universe:
    """An ordered ground set of distinct string labels (lexicographic)."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str]):
        given = list(labels)
        for lab in given:
            if not isinstance(lab, str) or not lab:
                raise InputError(f"labels must be non-empty strings, got {lab!r}")
        given.sort()
        ordered = tuple(given)
        if len(set(ordered)) != len(ordered):
            dupes = sorted({x for x in ordered if ordered.count(x) > 1})
            raise InputError(f"duplicate labels: {', '.join(dupes)}")
        self.labels = ordered
        self._index = {lab: i for i, lab in enumerate(ordered)}

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: object) -> bool:
        return isinstance(label, str) and label in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Universe) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Universe({list(self.labels)!r})"

    def position(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise InputError(f"unknown label {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.position(lab)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in _bits(mask))

    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1


def _masks_into(source: Universe, target: Universe, masks: Iterable[int]) -> tuple[int, ...]:
    """The masks over `source` read over `target`, which must hold every
    source label.

    Both universes hold their labels in sorted order, so the map from
    source positions to target positions is increasing.  It keeps every
    mask's size and the order of position tuples, and it is one-to-one on
    masks and keeps inclusion both ways, so a canonical antichain in
    canonical order is read as one."""
    for lab in source.labels:
        if lab not in target:
            raise InputError(f"target universe is missing label {lab!r}")
    return tuple(target.mask_of(source.labels_of(m)) for m in masks)


def _json_sets(obj: object, kind: str, labels_key: str, sets_key: str) -> tuple[Universe, list]:
    """The universe and the list of sets of a JSON document of the given
    kind.  Both must be JSON lists, and so must every set: a string is
    never read as a list of one-character labels."""
    if not isinstance(obj, dict) or labels_key not in obj or sets_key not in obj:
        raise InputError(f'{kind} JSON needs "{labels_key}" and "{sets_key}" keys')
    labels, sets = obj[labels_key], obj[sets_key]
    if not isinstance(labels, list):
        raise InputError(f'{kind} JSON "{labels_key}" must be a list')
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise InputError(f'{kind} JSON "{sets_key}" must be a list of lists')
    return Universe(labels), sets


# _KEY_BYTE[b] is 255 minus the 8-bit reversal of b.
_KEY_BYTE = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def sort_key(mask: int) -> tuple[int, bytes]:
    """Canonical family order: by size, then lexicographically by positions.

    The key is the size and the mask's little-endian bytes, each mapped to
    255 minus its bit reversal.  Take two sets a and b of equal size.  Their
    ascending position tuples first differ at p, the lowest bit of a ^ b,
    and the set that holds p comes first.  The bytes below the one holding
    p are equal, so that byte is the first where the keys differ.  Inside
    it the bits below p agree, and reversal makes p the most significant
    differing bit, so the set that holds p has the larger reversed byte
    and the smaller complemented one.  Keys of different lengths are safe:
    the key of one set cannot be a proper prefix of the key of another set
    of equal size, since the longer key has an extra last byte that is
    nonzero in the mask, and so a larger popcount.
    """
    return (
        mask.bit_count(),
        mask.to_bytes((mask.bit_length() + 7) // 8, "little").translate(_KEY_BYTE),
    )


def _minimal_in_order(masks: Iterable[int]) -> list[int]:
    """The members of `masks`, distinct masks in non-decreasing size, that
    hold no other member: the inclusion-minimal ones, in input order.

    A member r that lies in another member m is strictly smaller, so it
    comes before m and in an earlier size class, and two distinct members
    of one size never hold each other.  So m is tested only against the
    kept members of smaller sizes: a kept member is filed only once the
    scan has moved past its size, and no test is made inside a size class.
    That is enough: a member r in m that was not kept holds a smaller kept
    member, which m then holds too.

    Each filed mask goes into the bucket of its lowest bit, and m is tested
    only against the buckets of its own bits: a non-empty r lies in m only
    if r's lowest bit is in m.  The empty mask, first when present, lies in
    every mask, so it alone is kept.  Buckets are keyed by position, a
    small int, since hashing a mask as wide as a forest costs as much as
    the subset tests it saves."""
    out: list[int] = []
    by_low: dict[int, list[int]] = {}
    filed, size = 0, -1
    for m in masks:
        if m.bit_count() != size:
            if not m:
                return [0]
            size = m.bit_count()
            for r in out[filed:]:
                by_low.setdefault((r & -r).bit_length() - 1, []).append(r)
            filed = len(out)
        rest = m
        while rest:  # the buckets are searched inline: an any() per bucket slows small inputs
            low = rest & -rest
            rest ^= low
            for r in by_low.get(low.bit_length() - 1, ()):
                if r & m == r:
                    break
            else:
                continue
            break
        else:
            out.append(m)
    return out


def minimal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal members, deduplicated, in canonical order.
    Canonical order sorts by size first, as `_minimal_in_order` needs, and
    the members it keeps stay in that order."""
    return tuple(_minimal_in_order(sorted(set(masks), key=sort_key)))


def maximal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-maximal members, deduplicated, in canonical order."""
    out: list[int] = []
    for m in sorted(set(masks), key=sort_key, reverse=True):
        if not any(r & m == m for r in out):
            out.append(m)
    # distinct masks have distinct keys, so the reversed scan is canonical
    return tuple(reversed(out))


class SpernerFamily:
    """An antichain of subsets of a Universe, in canonical order.

    The constructor rejects families with comparable members; use
    `SquareFreeIdeal.from_supports(...).generators` to collapse an
    arbitrary collection first.
    Families the library's kernels build are stored by `_canonical`
    without a second check.
    """

    __slots__ = ("universe", "masks")

    def __init__(self, universe: Universe, masks: Iterable[int]):
        """Sort the distinct masks canonically and reject a comparable
        pair.  `_minimal_in_order` finds one with no test between members
        of equal size, which cannot be comparable, so a family of one size
        is accepted with no subset test at all.  Only a rejected family is
        scanned pair by pair, to name the first comparable pair in
        canonical order, which puts every proper subset before its
        supersets."""
        canon = tuple(sorted(set(masks), key=sort_key))
        if len(_minimal_in_order(canon)) < len(canon):
            for i, a in enumerate(canon):
                for b in canon[i + 1 :]:
                    if a & b == a:
                        raise InputError(
                            "family is not an antichain: "
                            f"{{{', '.join(universe.labels_of(a))}}} is contained in "
                            f"{{{', '.join(universe.labels_of(b))}}}"
                        )
        self.universe = universe
        self.masks = canon

    @classmethod
    def _canonical(cls, universe: Universe, masks: tuple[int, ...]) -> "SpernerFamily":
        """The family of `masks`, stored as given.  The caller has proven
        them distinct, pairwise incomparable and in canonical order, as the
        output of `minimal_masks`, `maximal_masks`, `minimal_transversals`
        or `graphs.minimal_odd_td_sets` is, or its image under a map shown
        to keep that order."""
        family = object.__new__(cls)
        family.universe, family.masks = universe, masks
        return family

    @classmethod
    def from_sets(
        cls, universe: Universe, sets: Iterable[Iterable[str]]
    ) -> "SpernerFamily":
        return cls(universe, (universe.mask_of(s) for s in sets))

    @property
    def members(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.universe.labels_of(m) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpernerFamily)
            and self.universe == other.universe
            and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.universe.labels, self.masks))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ", ".join(s) + "}" for s in self.members)
        return f"SpernerFamily([{inner}])"

    def to_json_obj(self) -> dict:
        return {
            "universe": list(self.universe.labels),
            "sets": [list(s) for s in self.members],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SpernerFamily":
        return cls.from_sets(*_json_sets(obj, "family", "universe", "sets"))


def minimal_transversals(family: SpernerFamily) -> SpernerFamily:
    """All inclusion-minimal transversals of the family, over the same universe.

    Incremental construction: fold members in canonical order, keeping the
    minimal transversals of the prefix.  A transversal of the prefix either
    already meets the next member or must be extended by one of its elements.
    A prefix's transversals need minimality, not canonical order, so each
    step sorts the staged sets by size alone, as `_minimal_in_order` needs,
    and the result is sorted canonically once, at the end.

    Conventions: a family containing the empty set has no transversals at
    all (empty result); the empty family has exactly the empty transversal.
    Both fall out of the fold: a Sperner family holding the empty set is
    `(0,)`, and folding in the member 0 extends no transversal, so the
    prefix's `(0,)` becomes `()` in one step.
    """
    partial = [0]
    for a in family.masks:
        staged: list[int] = []
        for t in partial:
            if t & a:
                staged.append(t)
            else:
                staged.extend(t | (1 << e) for e in _bits(a))
        partial = _minimal_in_order(sorted(set(staged), key=int.bit_count))
    return SpernerFamily._canonical(family.universe, tuple(sorted(partial, key=sort_key)))


def brute_force_transversals(family: SpernerFamily) -> SpernerFamily:
    """Minimal transversals by subset enumeration over the family's support.

    Independent of the incremental path above, deliberately: this is the
    oracle the fast kernel is checked against.  Limited to
    `BRUTE_FORCE_SUPPORT_CAP` (20) support elements.
    """
    support = 0
    for m in family.masks:
        support |= m
    s = support.bit_count()
    if s > BRUTE_FORCE_SUPPORT_CAP:
        raise CapExceeded(
            f"brute-force transversal cap is {BRUTE_FORCE_SUPPORT_CAP} support elements; got {s}"
        )
    if any(m == 0 for m in family.masks):
        return SpernerFamily(family.universe, ())
    positions = list(_bits(support))
    k = len(family.masks)
    full = (1 << k) - 1
    # hit[j] = bitmask over family members containing support element j
    hit = [
        sum(1 << i for i, m in enumerate(family.masks) if m >> p & 1)
        for p in positions
    ]
    reach = [0] * (1 << s)
    for sub in range(1, 1 << s):
        low = sub & -sub
        reach[sub] = reach[sub ^ low] | hit[low.bit_length() - 1]
    found: list[int] = []
    for sub in range(1 << s):
        if reach[sub] != full:
            continue
        if all(reach[sub ^ (1 << j)] != full for j in _bits(sub)):
            found.append(sum(1 << positions[j] for j in _bits(sub)))
    return SpernerFamily(family.universe, found)

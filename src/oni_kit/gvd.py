"""Geometric vertex decomposition of square-free monomial ideals.

The one-variable split, the validity of the resulting decomposition
(answered from its proof: on a square-free ideal it always holds), the
recursive decision procedure with certificates, and a polynomial-size
certifier for neighborhood ideals of totally-domination-unmixed balanced
forests that never searches.

Splitting at y drops y from the ring rather than passing to a quotient
ring; for square-free monomial ideals the two views agree.  The search
and the replay recurse on masks in the root ideal's universe.  A search
node is a pair (live, gens), the mask of the variables not yet split away
and the canonical generator tuple in those same positions.  Position
order is label order, so (live, gens) is one-to-one with the labels and
masks of the ideal a shrinking universe would hold, variables are tried
in the same order, and below the root no Universe, family or ideal is
built.  A replay node is a pair (certificate node, gens), and its replay
returns the node's split variables with its height: a split whose
variable is already split below it is rejected, which checks that every
split variable is live wherever it is met, so the live mask decides
nothing more.  Both take their base cases from `_base`.  The
search also settles as not GVD a node whose first variable's N is not
GVD when its complex has an edge and a disconnected 1-skeleton.
The forest certifier likewise recurses on vertex masks of the forest, a
piece's ideal being the minimal masks of its odd vertices' neighborhoods
in it, which splits carry down from the forest's.  A piece's ideal is
its components' sum, certified by folding each, last to first, onto the
certificate of those after it, with no merge.  Every certificate built
here is the maximally shared DAG: equal subtrees are one node.  The
encoder is one `universe._fold`, which builds one dict per distinct node
and does not recurse; the decoder, the search and the replay recurse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .errors import InputError
from .graphs import Graph, _heights_of_adj, _split_vertex, _structurally_unmixed
from .ideals import SquareFreeIdeal
from .universe import (
    _MISSING,
    SpernerFamily,
    Universe,
    _bits,
    _component_masks,
    _fold,
    minimal_masks,
)

BASE_UNIT = "unit"
BASE_ZERO = "zero"
BASE_VARIABLES = "vars"

_BASE_KINDS = (BASE_UNIT, BASE_ZERO, BASE_VARIABLES)


@dataclass(frozen=True)
class Base:
    kind: str


@dataclass(frozen=True)
class Split:
    variable: str
    c_branch: "GvdCertificate"
    n_branch: "GvdCertificate"


GvdCertificate = Union[Base, Split]


def certificate_to_json_obj(cert: GvdCertificate) -> dict:
    """The certificate as nested JSON objects, built by one `_fold`, so
    once per distinct node and with no recursion: the sub-dicts are shared
    wherever the certificate shares nodes.  `json.dumps` writes a shared
    dict out in full at each place it occurs, so the text is the
    certificate's tree expansion, as it would be with no sharing."""
    return _fold(cert, "c_branch", "n_branch", lambda node: {"base": node.kind},
                 lambda node, c, n: {"split": {"y": node.variable, "C": c, "N": n}})


_BASE_KEYS = frozenset({"base"})
_SPLIT_KEYS = frozenset({"split"})
_SPLIT_FIELDS = frozenset({"y", "C", "N"})
# One Base per kind, shared by every certificate the library builds.
_BASES = {kind: Base(kind) for kind in _BASE_KINDS}
_UNIT, _ZERO, _VARS = (_BASES[kind] for kind in _BASE_KINDS)
_new = object.__new__


def _interning() -> Callable[[str, GvdCertificate, GvdCertificate], Split]:
    """A Split constructor for one certificate under construction: it
    builds one node per (variable, C node, N node) and returns that node
    again for the same key.  When every branch comes from it or is one of
    the `_BASES`, equal subtrees are one node, by induction on depth: the
    result is the maximally shared DAG.  Its table holds every node it
    returned, and each node its branches, so no id in a key is reused
    while the constructor lives.

    A node is made by `object.__new__` and three writes to its `__dict__`,
    in field order: the frozen dataclass `__init__` sets each field through
    `object.__setattr__` and costs about twice as much.  The node is the
    one `Split(y, c_node, n_node)` builds, with the same equality, hash,
    repr and `dataclasses.replace`, and assigning to a field still raises
    `FrozenInstanceError`."""
    splits: dict[tuple[str, int, int], Split] = {}

    def make(y: str, c_node: GvdCertificate, n_node: GvdCertificate) -> Split:
        key = (y, id(c_node), id(n_node))
        node = splits.get(key)
        if node is None:  # Split(y, c_node, n_node), without the frozen __init__
            node = splits[key] = _new(Split)
            fields = node.__dict__
            fields["variable"], fields["c_branch"], fields["n_branch"] = y, c_node, n_node
        return node

    return make


def certificate_from_json_obj(obj: object) -> GvdCertificate:
    """The certificate a JSON object encodes, hash-consed: each split is
    built by one `_interning` constructor after both its branches, and
    each base is one of the `_BASES`, so equal subtrees of the JSON decode
    to one node.  The result is the maximally shared DAG of its JSON, and
    it compares equal to the certificate that was encoded."""
    make_split = _interning()

    def decode(obj: object) -> GvdCertificate:
        if isinstance(obj, dict):
            keys = obj.keys()
            if keys == _BASE_KEYS:
                kind = obj["base"]
                base = _BASES.get(kind) if isinstance(kind, str) else None
                if base is None:
                    raise InputError(f"unknown certificate base kind {kind!r}")
                return base
            if keys == _SPLIT_KEYS:
                inner = obj["split"]
                if not isinstance(inner, dict) or inner.keys() != _SPLIT_FIELDS:
                    raise InputError('certificate "split" needs keys y, C, N')
                y = inner["y"]
                if not isinstance(y, str):
                    raise InputError("split variable must be a string label")
                return make_split(y, decode(inner["C"]), decode(inner["N"]))
        raise InputError('certificate JSON must be {"base": …} or {"split": …}')

    return decode(obj)


def _split_masks(gens: tuple[int, ...], ybit: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """C and N of the ideal with canonical generators `gens` split at the
    variable `ybit`, as canonical generator tuples in the same positions.

    N is the generators y does not divide, taken in order with no
    minimization: a subsequence of a canonical antichain has no repeats
    and no comparable members, and is still in canonical order.

    C is the minimal masks of the generators with y removed, built without
    a sort.  The stripped generators g ^ y (g divisible by y) form a
    canonical antichain in canonical order: s ⊆ t among them gives
    g ⊆ h for the generators they came from, and removing the bit y, which
    all of them hold, changes neither their relative sizes nor the lowest
    bit of any s ^ t, which is what the canonical order compares.  No
    member n of N lies inside a stripped generator g ^ y or equals one, as
    then n ⊊ g.  So C is the stripped generators together with the
    members of N that contain none of them, and its canonical order is one
    merge of these two canonical sequences: by size, and within a size the
    mask holding the lowest bit of a ^ b comes first.  When y divides no
    generator, C = N = `gens`, returned at once.

    One loop sorts the generators into the stripped ones and N: this runs
    at every node of the GVD search and its replay, where two generator
    expressions over the generators cost more than the bit tests they wrap.
    """
    stripped, n_gens = [], []
    for g in gens:
        if g & ybit:
            stripped.append(g ^ ybit)
        else:
            n_gens.append(g)
    if not stripped:
        return gens, gens
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
    return tuple(c_gens), tuple(n_gens)


def _base(gens: tuple[int, ...]) -> Optional[tuple[Base, Optional[int]]]:
    """The base certifying the ideal with canonical generators `gens`, the
    unit, zero or variable one, with the ideal's height (None for the unit
    ideal); None when the ideal is no base."""
    if gens == (0,):
        return _UNIT, None
    if not gens:
        return _ZERO, 0
    if gens[-1].bit_count() == 1:  # a largest generator is last
        return _VARS, len(gens)
    return None


def _disconnected(live: int, gens: tuple[int, ...]) -> bool:
    """Does the complex of the ideal with canonical generators `gens` over
    the variables `live` have an edge and a disconnected 1-skeleton?

    The complex is the subsets of `live` that hold no generator.  Its
    vertices are the live variables that are not generators, and two of
    them are joined unless they form a generator, so only the generators
    of one or two variables matter; they lead the canonical order.  Both
    variables of a two-variable generator are vertices, as the generators
    are an antichain.  A vertex in no two-variable generator is joined to
    every other vertex, so the 1-skeleton is then connected or a single
    vertex, and one pass over the small generators finds such a vertex
    when there is one.  Otherwise `_component_masks` reads the components
    over adjacency masks that hold every position but a vertex and its
    partners in two-variable generators (the sweep reads them only inside
    the vertices).  The 1-skeleton is disconnected when there are two or
    more, and has an edge iff one of them has two vertices, as an edge
    lies inside one component and a connected set of two or more vertices
    holds one: that is, iff there are fewer components than vertices.
    """
    covered = 0
    for g in gens:
        if g.bit_count() > 2:
            break
        covered |= g
    if live & ~covered:  # a vertex in no two-variable generator
        return False
    singles = 0
    adj = [-1] * live.bit_length()  # adj[p]: every position but p and its partners
    for g in gens:
        low = g & -g
        if g == low:
            singles |= g
        elif g.bit_count() > 2:
            break
        else:
            adj[low.bit_length() - 1] &= ~g
            adj[(g ^ low).bit_length() - 1] &= ~g
    vertices = live & ~singles
    return 1 < len(_component_masks(adj, vertices)) < vertices.bit_count()


def split(ideal: SquareFreeIdeal, y: str) -> tuple[SquareFreeIdeal, SquareFreeIdeal]:
    """One-variable split: N keeps the generators y does not divide, C
    adjoins the y-divided ones; both land in the universe without y.

    `_split_masks` gives both parts as canonical generator tuples, neither
    holding y's bit.  Re-indexing moves the positions above y down by one,
    an increasing map of positions, which keeps canonical order (see
    `universe._masks_into`), so both are stored with no second check."""
    u = ideal.universe
    if y not in u:
        raise InputError(f"variable {y!r} not in the ideal's universe")
    p = u.position(y)
    low = (1 << p) - 1
    rest = Universe(lab for lab in u.labels if lab != y)

    def reindexed(masks: tuple[int, ...]) -> SquareFreeIdeal:
        moved = tuple((m & low) | (m >> 1 & ~low) for m in masks)
        return SquareFreeIdeal(SpernerFamily._canonical(rest, moved))

    c_masks, n_masks = _split_masks(ideal.generators.masks, 1 << p)
    return reindexed(c_masks), reindexed(n_masks)


def is_valid_geometric_decomposition(ideal: SquareFreeIdeal, y: str) -> bool:
    """Does intersecting C with N + (y) reproduce the ideal over the full
    universe?  Always, for a known variable y, so this answers from the
    proof below and computes nothing.

    Every generator lies in C, and in N or in (y).  Conversely, a monomial
    of C ∩ (N + (y)) lies in N ⊆ I, or is divisible by y and by a
    generator with y removed, hence by that generator.  So `is_gvd` and
    `validate_certificate` never call this; it stays for the `gvd split`
    verb.  The tests check the identity on `split`'s output.
    """
    if y not in ideal.universe:
        raise InputError(f"variable {y!r} not in the ideal's universe")
    return True


def _split_height(
    c_gens: tuple[int, ...],
    c_height: Optional[int],
    n_gens: tuple[int, ...],
    n_height: int,
) -> Optional[int]:
    """Height of a square-free ideal I from its split at a variable y, or
    None when I is mixed.  C and N, given by their canonical generators,
    must be unmixed (C may be the unit ideal) of heights c_height and
    n_height; I must not be the unit ideal.

    Read over the full ring, I = C ∩ (N + (y)), so every minimal prime of
    I is minimal over C or over N + (y).  N ⊆ C, so every minimal prime Q
    of C contains a minimal prime P of N and misses y, hence Q ⊉ P + (y);
    and P + (y) contains a minimal prime of C exactly when C ⊆ P.  Hence

        Min(I) = Min(C) ∪ {P + (y) : P ∈ Min(N), C ⊄ P}.

    If C is the unit ideal, Min(C) is empty and every P qualifies: I is
    unmixed of height ht N + 1.  If C = N (no generator uses y), no P
    qualifies and Min(I) = Min(N).  Otherwise C is neither unit nor zero
    (a zero C would equal N ⊆ C), and some P ∈ Min(N) has C ⊄ P, since
    C ⊆ P for all of them would give C ⊆ √N = N ⊆ C.  Then I has minimal primes of height ht C and of
    height ht N + 1, and is unmixed exactly when those agree.
    """
    if c_gens == (0,):
        return n_height + 1
    if c_gens == n_gens:
        return n_height
    return c_height if c_height == n_height + 1 else None


def is_gvd(ideal: SquareFreeIdeal) -> tuple[bool, Optional[GvdCertificate]]:
    """Decide geometric vertex decomposability, with a witness.

    Each node looks up the memo first, then `_base` (unit, zero,
    generated by variables).  Any other node loops over its live variables
    in canonical order: the first variable whose C and N are both GVD
    yields the witness reported, and the first whose C is not GVD ends the
    loop, as the node is then not GVD (the first lemma).  A GVD ideal must
    also be unmixed.  Rather than dualize, the search carries heights up
    from the bases and settles unmixedness with `_split_height` at the
    first variable whose C and N are GVD; it does not depend on the
    variable, so a mixed ideal fails there.  A mixed C is not GVD, so it
    ends the loop too, which keeps the search out of the rest of a mixed
    ideal.  The loop goes past the first variable only when that
    variable's C is GVD and its N is not.  Before it does, `_disconnected`
    tests whether the node's complex has an edge and a disconnected
    1-skeleton; if so, the node is not GVD (the second lemma below) and
    the loop ends.  So lemma 2 is tested at most once per node,
    and never on the nodes a split settles at their first variable, most
    of them GVD, where it would refute nothing.  Nodes are (live, gens)
    mask pairs in the ideal's own universe, split by `_split_masks`, and
    are memoized on that pair.  Every split is built by one `_interning`
    constructor and every base is one of the `_BASES`, so the certificate
    is the maximally shared DAG: equal subtrees are one node, as in the
    decoded copy of its JSON.

    The first lemma is the ideal form of Provan and Billera's fact that
    links of vertex decomposable complexes are vertex decomposable (C of a
    split at y is the ideal of the link of y); the proof below uses
    nothing but the definition the search decides.  Write C_y and N_y for
    the parts of a split at y, as ideals over the live variables less y,
    and read an ideal as its square-free monomials.

    Lemma 1.  If I is GVD over the live set L and y is in L, then C_y(I) is
    GVD over L less y.

    (a) The splits commute: for z ≠ y, C_z C_y I = C_y C_z I and
    N_z C_y I = C_y N_z I, as canonical generator tuples.  C_y of an ideal
    is generated by g less y for g in any monomial generating set, since
    every generator in it is a multiple of a minimal one and the minimal
    ones are among them; N_z of an ideal is generated by the members of
    any monomial generating set that z does not divide, since a monomial
    of the ideal free of z is a multiple of a minimal generator free of z.
    So both sides of the first identity are generated by g less {y, z},
    and both sides of the second by g less y over the g that z does not
    divide (z ≠ y, so z divides g less y exactly when it divides g).
    Equal ideals have one canonical generator tuple.

    (b) The minimal primes of C_y(I) are exactly the minimal primes of I
    that avoid y.  A prime P of I that misses y meets every generator g
    off y, so meets g less y; a smaller prime over C_y(I) would be one
    over I.  Conversely a minimal prime T of C_y(I) misses y and meets
    every g, so it contains a minimal prime P of I, which misses y and is
    therefore over C_y(I), and P = T.  So if I is unmixed, C_y(I) is the
    unit ideal (no prime avoids y) or unmixed of the height of I.

    (c) Induction on |L|.  If I is a base, C_y(I) is one too: C_y of the
    unit or the zero ideal is itself, and of an ideal generated by
    variables it is the unit ideal if y is one of them and the ideal
    itself if not.  Otherwise I is GVD by a split at some z in L, with
    C_z I and N_z I GVD over L less z and I unmixed.  If z = y there is
    nothing to show.  If z ≠ y, let J = C_y(I); if J is a base it is GVD.
    Otherwise split J at z, which is live in L less y.  By (a) its parts
    are C_y(C_z I) and C_y(N_z I), and these are GVD over L less {y, z}
    by the induction hypothesis on L less z.  GVD ideals are unmixed (the
    bases are, and `_split_height` gives a height only to an unmixed
    ideal), and J is unmixed by (b), since I is unmixed and J is not the
    unit ideal.  Given unmixed parts, `_split_height` returns a height in
    each of its cases exactly when the ideal split is unmixed: a unit C
    always gives one, C = N gives the height of N, and otherwise it asks
    that C have one more than N, which is unmixedness (its docstring).
    So J is GVD by its split at z.

    Hence a node whose C at some variable is not GVD is not GVD.  On a GVD
    node every C is GVD, so the loop tries the same variables, with the
    same verdicts, as it would if it skipped such variables instead.  The
    certificate is therefore the same, and so is its sharing, which the
    certificate alone fixes.  The rule changes only how soon a node that
    is not GVD is settled.

    The second lemma is the ideal form of Provan and Billera's fact that a
    vertex decomposable complex of dimension at least 1 is connected, and
    its proof too uses nothing but the search's definition.  Write Δ(I)
    for the complex of I over L, the subsets of L that hold no generator.
    The minimal primes of I are generated by the complements of its
    facets, so when I is not the unit ideal, a largest face of Δ(I) has
    |L| - ht I variables.

    Lemma 2.  If I is GVD over L, the 1-skeleton of Δ(I) is edgeless or
    connected.

    Induction on |L|.  The unit ideal gives the void complex, and the zero
    ideal and one generated by variables a full simplex.  Otherwise I is
    GVD by a split at some y in L, with C = C_y(I) and N = N_y(I) GVD over
    L less y.  Δ(N) is the faces of Δ(I) that miss y, and Δ(C) the sets F
    with F ∪ {y} in Δ(I).  So the edges of Δ(I) are those of Δ(N) and the
    {y, v} for the vertices v of Δ(C), each of which is a vertex of Δ(N).
    If C is the unit ideal (y is a generator), Δ(C) is void and Δ(I) is
    Δ(N).  If C = N, then Δ(C) = Δ(N) holds the empty face, so y is a
    vertex joined to every vertex of Δ(N): the 1-skeleton is a cone, and
    connected.  Otherwise `_split_height` gave I a height only because
    ht C = ht N + 1 (the heights carried up are the ideals' own, each
    being unmixed), so a largest face of Δ(N) has one variable more than
    one of Δ(C), both being over L less y.  If Δ(C) has a vertex v, then
    Δ(N) has an edge, so its 1-skeleton is connected by the induction
    hypothesis, and the edge {y, v} joins y to it.  If Δ(C) has no vertex,
    then Δ(N) has no edge, and neither has Δ(I).

    So a node whose complex has an edge and a disconnected 1-skeleton is
    not GVD, and ending its loop after the first variable returns None
    only where the loop would: a GVD node never takes that exit, and a
    node that is not GVD ends as None either way.  Every node's value
    depends on (live, gens) alone and is the one the loop alone gives,
    wherever lemma 2 is tested, so every certificate is the same, and so
    is its sharing, which the `_interning` constructor fixes from the
    certificate alone.  Where the test sits changes only how many splits
    a node that is not GVD makes before it is settled.
    """
    labels = ideal.universe.labels
    make_split = _interning()
    memo: dict[tuple, Optional[tuple]] = {}

    def search(live: int, gens: tuple[int, ...]) -> Optional[tuple]:
        """(certificate, height) if GVD, else None."""
        key = (live, gens)
        found = memo.get(key, _MISSING)
        if found is not _MISSING:
            return found
        found = _base(gens)
        if found:
            return found
        rest = live
        while rest:  # popped inline, lowest first: no `_bits` generator per node
            ybit = rest & -rest
            rest ^= ybit
            c_gens, n_gens = _split_masks(gens, ybit)
            c_found = search(live ^ ybit, c_gens)
            if c_found is None:  # then neither is this node (lemma 1)
                break
            n_found = search(live ^ ybit, n_gens)
            if n_found is None:
                if ybit == live & -live and _disconnected(live, gens):  # not GVD (lemma 2)
                    break
                continue
            height = _split_height(c_gens, c_found[1], n_gens, n_found[1])
            if height is not None:
                found = make_split(labels[ybit.bit_length() - 1], c_found[0], n_found[0]), height
            break
        memo[key] = found
        return found

    found = search(ideal.universe.full_mask(), ideal.generators.masks)
    return (True, found[0]) if found else (False, None)


class _Rejected(Exception):
    """A certificate node failed replay."""


def validate_certificate(ideal: SquareFreeIdeal, cert: GvdCertificate) -> bool:
    """Replay the decomposition the certificate records.

    Each node costs one `_split_masks` and no dualization: heights flow up
    from the bases, and `_split_height` checks that every split ideal is
    unmixed.  A Base must be the one `_base` gives, or `vars` on the zero
    ideal; a node that is neither a Base nor a Split is rejected.  The
    replay runs on generator masks in the ideal's universe, as `is_gvd`
    does, so a split variable must be one of the universe's labels not yet
    split away on the path that reaches it.

    That rule is checked in the same post-order pass, which carries up
    with each node's height its used(), the union of the split-variable
    bits in its sub-DAG: a split is rejected when its variable is not a
    universe label (a non-string one included), or is in used() of either
    child.  This holds exactly when every path from the root meets each
    split variable live.  If a path met y at a split s and again at a
    split t below, t would lie in the sub-DAG of a child of s, so y would
    be in that child's used().  Conversely, if y is in used() of a child
    of s, some path goes from the root through s to a split at y below it,
    where y is gone.

    The replay reads no live mask, so a node's verdict and height depend
    on (node, gens) alone, and replays are memoized per call on that pair:
    shared nodes, in the DAG certificates `is_gvd` returns and in decoded
    ones, are split once per distinct generator tuple.  used() is memoized
    with the height, which is sound because it depends on the node alone.
    """
    bit_of = {lab: 1 << p for p, lab in enumerate(ideal.universe.labels)}
    memo: dict[tuple, tuple[Optional[int], int]] = {}

    def replay(gens: tuple[int, ...], node: GvdCertificate) -> tuple[Optional[int], int]:
        """Height (None if unit) of the ideal with generators `gens` when
        `node` certifies it, and the node's used(); raises _Rejected
        otherwise."""
        key = (id(node), gens)
        known = memo.get(key)  # a memoized value is a (height, used) pair, never None
        if known is not None:
            return known
        if isinstance(node, Base):
            found = _base(gens)
            if not gens and node.kind == BASE_VARIABLES:  # zero: generated by no variable
                found = _VARS, 0
            if found is None or node.kind != found[0].kind:
                raise _Rejected
            height, used = found[1], 0
        elif isinstance(node, Split) and gens != (0,):
            ybit = bit_of.get(node.variable, 0) if isinstance(node.variable, str) else 0
            if not ybit:
                raise _Rejected
            c_gens, n_gens = _split_masks(gens, ybit)
            c_height, c_used = replay(c_gens, node.c_branch)
            n_height, n_used = replay(n_gens, node.n_branch)
            height = _split_height(c_gens, c_height, n_gens, n_height)
            used = c_used | n_used
            if height is None or used & ybit:
                raise _Rejected
            used |= ybit
        else:
            raise _Rejected
        memo[key] = height, used
        return height, used

    try:
        replay(ideal.generators.masks, cert)
    except _Rejected:
        return False
    return True


def certify_tree_gvd(forest: Graph) -> GvdCertificate:
    """Structural certificate for the odd-vertex neighborhood ideal of a
    TD-unmixed balanced forest; no search, recursion mirrors deleting a
    degree-2 branch vertex or its closed neighborhood.  Every node is
    built by one `_interning` constructor or is one of the `_BASES`, so
    the certificate returned is the maximally shared DAG: equal subtrees
    are one node, as in the decoded copy of its JSON.

    The forest is checked once, here, and no piece is checked again.
    Every piece reached from a checked forest is again a TD-unmixed
    balanced forest whose split components have height 3: this is the
    induction of the paper's main theorem, which deletes a degree-2
    height-2 vertex of such a tree, or its closed neighborhood, and keeps
    the class.  So `graphs._split_vertex`, which checks nothing, picks the
    vertex the checked `find_split_vertex` rule would; a property test
    compares the two on every component split.

    The deletions keep an invariant that the rest needs: every odd vertex
    keeps an even neighbor in its piece.  In the forest it has height at
    least 1, so a neighbor, and balance makes every neighbor of an odd
    vertex even.  Deleting a closed neighborhood N[y] of an even y removes
    odd vertices and no other even vertex.  Deleting a split vertex y
    alone takes one neighbor from each of its two odd neighbors, of
    heights 1 and 3 in the component, and each keeps another: the first
    its leaf, the second, not a leaf, a second neighbor.  So no generator
    is the empty mask.

    A piece's generators are the minimal masks of its odd vertices'
    neighborhoods in it; `minimal_masks` computes them for each component
    of the forest, and splits carry them down.  Deleting y from a component
    removes y from every odd neighborhood, and the minimal masks of
    those are the minimal masks of the old generators with y removed (each
    neighborhood holds a generator), which is C of the split at y.
    Deleting N[y] removes y's neighbors, which are odd by balance, and
    leaves every other odd vertex's neighborhood as it was.  The odd
    vertices removed are exactly those whose neighborhood holds y, so the
    minimal masks left are the generators y does not divide, which is N;
    a stranded vertex's lone neighbor y is the case where C is the unit
    ideal.  A generator is a neighborhood inside the component of its odd
    vertex and is not empty, so it meets exactly one component of a
    piece, and the components' generators are filters of the piece's.  A
    subsequence of a canonical antichain is still one, in canonical
    order, so every generator tuple here is the one `minimal_masks` would
    return, and a component's generators depend on its vertices alone.

    A piece's ideal is the sum of its components' ideals, on disjoint
    supports.  For y in the support of a summand A, with B the sum of the
    others, C_y(A + B) = C_y(A) + B and N_y(A + B) = N_y(A) + B; heights
    add over disjoint supports, so `_split_height` accepts the split of
    A + B when it accepts A's.  A chain A (one generator) peels its
    variables in a loop, N being B each time, down to a split at its last
    variable with C the unit ideal, or to the variable base when B is zero
    or variables.  Any other A splits at y, its first generator when that
    is one variable (a stranded vertex's lone neighbor) and `_split_vertex`
    otherwise, with C's and N's components each followed by B.  By
    induction on A, these rules read B through its node alone, so `cert`
    folds a piece's components, last to first, each onto `after`, the node
    of the sum of those behind it, memoized on the component and `after`'s
    id (the `_interning` table and `_BASES` hold every node, so no id is
    reused).  The stack is one frame pair per split inside one component.
    `summands` puts the components whose ideal is one variable first, by
    that variable, then the others by lowest position.  A node is the
    variable base only if every summand of its sum is one variable, and
    `after` is that base only behind one-variable summands: a component
    that is not one variable is followed by its piece's later components,
    none one variable, then by what followed the component split into
    that piece, and at the top by the forest's, never one variable, which
    needs an odd vertex with one neighbor, a leaf, of height 0.  When (y)
    is a generator, no other generator holds y, as they are an antichain,
    so `_split_masks` gives C = (0,), the unit ideal, and N the other
    generators.  A component whose first generator has two or more
    variables has no one-variable generator, since those lead canonical
    order, so its C is never the unit ideal.  A one-variable component is
    only ever one of the two left by deleting a split vertex, the one
    deletion that shrinks an odd neighborhood that stays; so this is the
    certificate that merging the components' certificates pairwise, left
    to right, gives, as the tests' reference does.  Memos per call:
    certificates on the component and `after`, splits on the component.
    """
    u = forest.universe
    adj = forest.adj
    strata, comps, _, balanced = _heights_of_adj(adj, u.full_mask())
    if not balanced or not _structurally_unmixed(adj, comps, strata):
        raise InputError(
            "certificate construction needs a TD-unmixed balanced forest"
        )
    labels = u.labels
    make_split = _interning()
    splits: dict[int, tuple] = {}
    memo: dict[tuple[int, int], GvdCertificate] = {}

    def summands(piece: int, gens: tuple[int, ...]) -> tuple:
        """The piece's components with their generators: those whose ideal
        is one variable by that variable, then the others in order."""
        comps = _component_masks(adj, piece)
        parts = [[] for _ in comps]
        for g in gens:  # one pass: each generator meets exactly one component
            i = 0
            while not g & comps[i]:
                i += 1
            parts[i].append(g)
        ones, others = [], []
        for comp, comp_gens in zip(comps, parts):
            if len(comp_gens) == 1 and comp_gens[0].bit_count() == 1:
                ones.append((comp, tuple(comp_gens)))
            elif comp_gens:
                others.append((comp, tuple(comp_gens)))
        return tuple(sorted(ones, key=lambda part: part[1]) + others)

    def split_of(comp: int, gens: tuple[int, ...]) -> tuple:
        """The split variable, C's summands (None if unit) and N's."""
        found = splits.get(comp)
        if found is None:
            y = gens[0].bit_length() - 1 if gens[0].bit_count() == 1 else _split_vertex(adj, comp)
            c_gens, n_gens = _split_masks(gens, 1 << y)
            c_part = None if c_gens == (0,) else summands(comp & ~(1 << y), c_gens)
            n_part = summands(comp & ~(adj[y] | 1 << y), n_gens)
            found = splits[comp] = labels[y], c_part, n_part
        return found

    def cert(parts: tuple, after: GvdCertificate) -> GvdCertificate:
        """Certificate of the parts' sum plus the sum `after` certifies."""
        for comp, gens in reversed(parts):
            key = comp, id(after)
            node = memo.get(key)
            if node is None:
                if len(gens) == 1:  # a chain: a loop, however long
                    *chain, last = _bits(gens[0])
                    bare = after is _ZERO or after is _VARS  # (last) plus these is variables
                    node = _VARS if bare else make_split(labels[last], _UNIT, after)
                    for p in reversed(chain):
                        node = make_split(labels[p], node, after)
                else:
                    y, c_part, n_part = split_of(comp, gens)
                    c_node = _UNIT if c_part is None else cert(c_part, after)
                    node = make_split(y, c_node, cert(n_part, after))
                memo[key] = node
            after = node
        return after

    odd = sum(strata[1::2])
    parts = tuple((c, minimal_masks(adj[p] for p in _bits(c & odd))) for c in comps if c & odd)
    return cert(parts, _ZERO)

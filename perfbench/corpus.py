"""Seeded inputs for the benchmark workloads, built with the standard
library and the library under test only.

Every generator here takes a `random.Random` seeded from `--seed`, so one seed
always yields the same inputs; `digest` fingerprints a corpus so that two
runs can be shown to have used identical ones.
"""

from __future__ import annotations

import hashlib
import json
import random


def antichain_sweep(n: int = 5) -> list[tuple[int, ...]]:
    """Every antichain of nonempty subsets of an n-set, as masks, the empty
    one included (7,580 for n = 5: the Dedekind number 7,581 minus {{}})."""
    masks = list(range(1, 1 << n))
    out: list[tuple[int, ...]] = []

    def grow(chosen: list[int], start: int) -> None:
        out.append(tuple(chosen))
        for i in range(start, len(masks)):
            m = masks[i]
            if all(m & c != m and m & c != c for c in chosen):
                chosen.append(m)
                grow(chosen, i + 1)
                chosen.pop()

    grow([], 0)
    return out


def random_masks(rng: random.Random, n: int, count: int, lo: int, hi: int) -> list[int]:
    """`count` random subsets of range(n), each of lo..hi elements."""
    out = []
    for _ in range(count):
        m = 0
        for p in rng.sample(range(n), rng.randint(lo, hi)):
            m |= 1 << p
        out.append(m)
    return out


def leaf_heights(tree) -> list[int]:
    """Distance from each vertex of a tree to its nearest leaf."""
    adj = tree.adj
    heights = [-1] * len(adj)
    frontier = [p for p, nb in enumerate(adj) if nb.bit_count() <= 1]
    for p in frontier:
        heights[p] = 0
    while frontier:
        nxt = []
        for p in frontier:
            for q in _positions(adj[p]):
                if heights[q] < 0:
                    heights[q] = heights[p] + 1
                    nxt.append(q)
        frontier = nxt
    return heights


def _extend(lib, rng: random.Random, tree):
    """One o-extension at a seeded pick among the vertices of height 1..3."""
    heights = leaf_heights(tree)
    pick = rng.choice([v for p, v in enumerate(tree.vertices) if 1 <= heights[p] <= 3])
    return lib.graphs.o_extend(tree, pick), pick


def grow_tree(lib, rng: random.Random, steps: int):
    """Apply `steps` seeded o-extensions to the 7-vertex path; returns the
    tree and the picks (the input `o_sequence` and `build o-seq` take)."""
    tree = lib.graphs.path_graph(6)
    picks = []
    for _ in range(steps):
        tree, pick = _extend(lib, rng, tree)
        picks.append(pick)
    return tree, picks


def odd_td_count(tree) -> int:
    """Number of minimal odd TD-sets of a balanced tree, by dynamic
    programming; in such a tree every edge joins an odd-height and an
    even-height vertex.  A minimal odd TD-set S is a set of even vertices
    meeting every odd neighbourhood in which each member has a private odd
    neighbour (one whose only neighbour in S it is).  The states, per
    rooted subtree, count partial choices:

    - even v: 0 = v not in S; 1 = v in S with a private odd child;
      2 = v in S still needing its parent as private neighbour.
    - odd v: 0 = no child in S; 1 = one child in S that is already
      private; 2 = one child in S that needs v; 3 = two or more, all
      private.

    Used to pick trees by output size without dualizing, and as a check of
    the dualize workload's TD-set items that does not go through the
    kernel; the tests check it against `minimal_odd_td_sets`."""
    n = len(tree.vertices)
    adj = tree.adj
    odd = sum(1 << p for p, h in enumerate(leaf_heights(tree)) if h % 2)
    order, parent = [0], [-1] * n
    for v in order:
        for w in _positions(adj[v]):
            if w != parent[v] and w != 0:
                parent[w] = v
                order.append(w)
    state: list[tuple[int, ...]] = [()] * n
    for v in reversed(order):
        kids = [state[w] for w in _positions(adj[v]) if w != parent[v]]
        if odd >> v & 1:
            none = _prod(k[0] for k in kids)
            one_p = one_n = 0
            for i, k in enumerate(kids):
                rest = _prod(j[0] for j in kids[:i] + kids[i + 1:])
                one_p += k[1] * rest
                one_n += k[2] * rest
            many = _prod(k[0] + k[1] for k in kids) - none - one_p
            state[v] = (none, one_p, one_n, many)
        else:
            absent = _prod(k[1] + k[2] + k[3] for k in kids)
            settled = _prod(k[1] + k[3] for k in kids)
            state[v] = (absent, _prod(k[0] + k[1] + k[3] for k in kids) - settled, settled)
    root = state[0]
    return root[1] + root[2] + root[3] if odd & 1 else root[0] + root[1]


def _positions(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def grown_trees(lib, rng: random.Random, *, steps: tuple[int, int],
                vertices: tuple[int, int], outputs: tuple[int, int],
                count: int, tries: int = 5000) -> list:
    """`count` distinct grown trees (by edge set).  Each try grows one
    seeded o-sequence and keeps its first tree, from steps[0] extensions
    on, whose vertex count and odd TD-set count lie in the given inclusive
    ranges; it gives up once either count is past its range."""
    seen: set = set()
    out = []
    for _ in range(tries):
        tree = lib.graphs.path_graph(6)
        for step in range(1, steps[1] + 1):
            tree, _ = _extend(lib, rng, tree)
            if step < steps[0]:
                continue
            n = len(tree.vertices)
            k = odd_td_count(tree)
            if n > vertices[1] or k > outputs[1]:
                break
            if n >= vertices[0] and k >= outputs[0] and tree.edges not in seen:
                seen.add(tree.edges)
                out.append(tree)
                if len(out) == count:
                    return out
                break
    raise RuntimeError(f"found {len(out)} of {count} trees in {tries} tries")


def digest(descriptor: object) -> str:
    """Short SHA-256 of a JSON-serialisable description of a corpus."""
    text = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]

"""Shared worked examples: the 7-vertex path, the 12-vertex reference
tree, the twin-broom base tree, and the five-member Sperner family used
by the realization walkthrough."""

from __future__ import annotations

from .errors import InputError
from .graphs import Graph, path_graph
from .universe import SpernerFamily, Universe

T_A_EDGES = (
    ("l1", "s1"),
    ("l2", "s2"),
    ("l3", "s3"),
    ("l4", "s3"),
    ("s1", "u1"),
    ("s2", "u2"),
    ("s3", "u3"),
    ("u1", "r1"),
    ("u2", "r1"),
    ("u2", "r2"),
    ("u3", "r2"),
)

TWIN_BROOM_EDGES = (
    ("r", "u"),
    ("r", "up"),
    ("u", "s"),
    ("up", "sp"),
    ("s", "l1"),
    ("s", "l2"),
    ("sp", "lp1"),
    ("sp", "lp2"),
)


def p6() -> Graph:
    return path_graph(6)


def t_a() -> Graph:
    return Graph.from_vertices({v for e in T_A_EDGES for v in e}, T_A_EDGES)


def twin_broom() -> Graph:
    return Graph.from_vertices({v for e in TWIN_BROOM_EDGES for v in e}, TWIN_BROOM_EDGES)


def beg_a() -> SpernerFamily:
    universe = Universe(["v1", "v2", "v3", "v4", "v5"])
    return SpernerFamily.from_sets(
        universe,
        [
            ["v1", "v2", "v3"],
            ["v1", "v2", "v4"],
            ["v1", "v3", "v4"],
            ["v2", "v3", "v5"],
            ["v3", "v4", "v5"],
        ],
    )


_FIXTURES = {
    "p6": p6,
    "t_a": t_a,
    "twin_broom": twin_broom,
    "beg_a": beg_a,
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def fixture_document(name: str) -> dict:
    """The named fixture in its standard JSON encoding; lookup ignores
    case."""
    build = _FIXTURES.get(name.lower())
    if build is None:
        raise InputError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        )
    return build().to_json_obj()

"""The CLI contract on arbitrary input: every verb that reads JSON, driven
through `cli.main` with small arbitrary documents, exits 0, 1 or 2, writes
exactly one newline-terminated JSON document, and on exit 2 that document
is {"error": <string>}."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oni_kit import cli

SECOND = "@second"  # replaced by the path of the second document
LABEL = "@label"  # replaced by a drawn label

# each verb with the kind of document it reads
VERBS = (
    (["dualize"], "family"),
    (["ideal", "primes"], "ideal"),
    (["ideal", "unmixed"], "ideal"),
    (["ideal", "sr-complex"], "ideal"),
    (["ideal", "equal", "--with", SECOND], "ideal"),
    (["ideal", "sum", "--with", SECOND], "ideal"),
    (["ideal", "intersect", "--with", SECOND], "ideal"),
    *(
        (["complex", op], "complex")
        for op in ("vd", "sr-ideal", "facet-ideal", "covers", "tree", "cycle")
    ),
    (["complex", "join", "--with", SECOND], "complex"),
    *(
        (["graph", op], "graph")
        for op in (
            "oni", "odd-oni", "td-sets", "odd-td-sets", "heights", "unmixed", "stable",
            "even-stable", "chordal", "decompose", "split-vertex",
        )
    ),
    (["build", "o-seq"], "picks"),
    (["build", "realize"], "family"),
    (["build", "edge-join", "--with", SECOND, "--v1", LABEL, "--v2", LABEL], "graph"),
    (["gvd", "check"], "ideal"),
    (["gvd", "split", "--var", LABEL], "ideal"),
    (["gvd", "certify-tree"], "graph"),
    (["gvd", "validate"], "cert"),
)

# at most six labels; digits make the 7-vertex path's vertices valid picks
labels = st.sampled_from(["0", "1", "2", "3", "a", "b"])
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(allow_nan=True), labels
)
keys = st.sampled_from(
    ["universe", "sets", "generators", "facets", "vertices", "edges", "kind", "zero",
     "unit", "picks", "ideal", "certificate", "split", "base", "y", "C", "N", "a"]
)
rarely = st.integers(0, 3).map(lambda r: r == 3)  # true in about one draw in four


def nested(depth):
    """Arbitrary JSON nested at most `depth` deep, at most six members."""
    if depth == 0:
        return scalars
    inner = nested(depth - 1)
    return st.one_of(
        scalars, st.lists(inner, max_size=6), st.dictionaries(keys, inner, max_size=6)
    )


@st.composite
def shaped(draw, kind):
    """A document of the given kind whose sets are drawn from its universe,
    so that most of them decode."""
    universe = draw(st.lists(labels, unique=True, max_size=6))
    member = st.sampled_from(universe) if universe else st.nothing()
    subset = st.lists(member, unique=True, max_size=len(universe))
    sets = draw(st.lists(subset, max_size=6))
    if kind == "family":
        return {"universe": universe, "sets": sets}
    if kind == "complex":
        doc = {"universe": universe, "facets": sets}
        if draw(rarely):
            doc["kind"] = draw(st.sampled_from(["void", "empty", "ordinary"]))
        return doc
    if kind == "graph":
        pairs = st.lists(member, min_size=2, max_size=2, unique=True)
        edges = draw(st.lists(pairs, max_size=8)) if len(universe) > 1 else []
        return {"vertices": universe, "edges": edges}
    if kind == "picks":
        return universe
    ideal = {"universe": universe, "generators": sets}
    for flag in ("zero", "unit"):
        if draw(rarely):
            ideal[flag] = draw(st.booleans())
    if kind == "ideal":
        return ideal
    variable = member if universe else labels
    certificates = st.recursive(
        st.fixed_dictionaries({"base": st.sampled_from(["unit", "zero", "vars"])}),
        lambda node: st.fixed_dictionaries(
            {"split": st.fixed_dictionaries({"y": variable, "C": node, "N": node})}
        ),
        max_leaves=4,
    )
    return {"ideal": ideal, "certificate": draw(certificates)}


def documents(kind):
    """Mostly documents of the verb's kind, sometimes any JSON at all."""
    return rarely.flatmap(lambda any_json: nested(4) if any_json else shaped(kind))


@pytest.fixture(scope="module")
def second_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "second.json"


def run_cli(argv, stdin_text):
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_every_json_verb_keeps_the_output_contract(second_path, data):
    verb, kind = data.draw(st.sampled_from(VERBS))
    second_path.write_text(json.dumps(data.draw(documents(kind))))
    label = data.draw(labels)
    argv = [str(second_path) if a == SECOND else label if a == LABEL else a for a in verb]
    argv += ["--assert"] * data.draw(rarely)
    code, out = run_cli(argv, json.dumps(data.draw(documents(kind))))
    assert code in (0, 1, 2)
    assert out.endswith("\n") and out.count("\n") == 1
    body = json.loads(out)
    if code == 2:
        assert isinstance(body, dict) and list(body) == ["error"]
        assert isinstance(body["error"], str)

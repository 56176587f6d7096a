"""The CLI contract on arbitrary input: every verb of the CLI's verb table,
driven through `cli.main` with small arbitrary documents and option values,
exits 0, 1 or 2, writes exactly one newline-terminated JSON document, and on
exit 2 that document is {"error": <string>}.  Graph verbs also read the
edge-list text format.  The list of verbs comes from the table, so a new
verb is fuzzed without editing this file; `verify-paper` reads nothing and
runs once, outside hypothesis.

The parser `cli.build_parser(argv)` builds for one invocation must parse
each drawn argv, and help, bare, unknown and malformed argvs on every verb,
group and the top level, exactly as the whole menu does."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oni_kit import InputError, cli
from oni_kit.fixtures import fixture_names

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
    assert kind == "certified"
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


def option_values(name):
    """Command-line values for a verb's option: `--n` is an edge count,
    `name` a fixture name, and every other option a vertex or variable."""
    if name == "--n":
        return st.integers(-2, 6).map(str)
    if name == "name":
        return st.sampled_from([*fixture_names(), "P6", "nope", ""])
    return labels


def as_text(doc):
    """The edge-list text form of a drawn graph document, declaring every
    vertex; any other document as its JSON text."""
    try:
        lines = [f"# vertex {v}" for v in doc["vertices"]]
        lines += [" ".join(edge) for edge in doc["edges"]]
    except (KeyError, TypeError):
        return json.dumps(doc)
    return "\n".join(lines) + "\n"


def check_contract(code, out):
    assert code in (0, 1, 2)
    assert out.endswith("\n") and out.count("\n") == 1
    body = json.loads(out)
    if code == 2:
        assert isinstance(body, dict) and list(body) == ["error"]
        assert isinstance(body["error"], str)


FUZZED = [verb for verb in cli._VERBS if verb.path != "verify-paper"]


@st.composite
def invocations(draw, second_path):
    """A drawn verb's argv, its stdin, and the text its argv reads from
    `second_path` (None when the verb reads fewer than two documents)."""
    verb = draw(st.sampled_from(FUZZED))
    argv = verb.path.split()
    encode = json.dumps
    if "graph" in verb.kinds and draw(st.booleans()):
        argv += ["--format", "text"]
        encode = as_text
    second = None
    if len(verb.kinds) == 2:
        second = encode(draw(documents(verb.kinds[1])))
        argv += ["--with", str(second_path)]
    for name, _ in verb.options:
        value = draw(option_values(name))
        argv += [name, value] if name.startswith("-") else [value]
    argv += ["--assert"] * draw(rarely)
    stdin = encode(draw(documents(verb.kinds[0]))) if verb.kinds else ""
    return argv, stdin, second


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_every_verb_keeps_the_output_contract(second_path, data):
    argv, stdin, second = data.draw(invocations(second_path))
    if second is not None:
        second_path.write_text(second)
    check_contract(*run_cli(argv, stdin))


def test_verify_paper_keeps_the_output_contract():
    code, out = run_cli(["verify-paper"], "")
    check_contract(code, out)
    assert code == 0


# ---------------------------------------------------------------------------
# the invoked verb's parser against the whole menu


def parsed(parser, argv):
    """What `parser` makes of `argv`: its namespace, its error message, or
    the exit code and text of -h."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(parser.parse_args(argv))
    except InputError as exc:
        return str(exc)
    except SystemExit as exc:
        return exc.code, out.getvalue()


def menu_argvs():
    """For each verb, group and the top level: help, a bare call (missing a
    required argument where it has one), an unknown flag, an extra
    positional, an option without its value and an unknown choice."""
    paths = [verb.path.split() for verb in cli._VERBS] + [[group] for group in cli._GROUPS] + [[]]
    tails = (["-h"], ["--help"], [], ["--bogus"], ["extra"], ["p6", "extra"], ["--out"],
             ["--format", "xml"], ["--pretty", "-h"], ["nope"])
    return [path + tail for path in paths for tail in tails] + [["--pretty", "fixture", "p6"]]


def test_the_invoked_verbs_parser_matches_the_whole_menu():
    whole = cli.build_parser()
    outcomes = [parsed(cli.build_parser(argv), argv) for argv in menu_argvs()]
    assert outcomes == [parsed(whole, argv) for argv in menu_argvs()]
    kinds = {type(outcome).__name__ for outcome in outcomes}
    assert kinds == {"dict", "str", "tuple"}  # namespaces, errors and help all compared


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_invoked_verbs_parser_parses_drawn_argvs_as_the_whole_menu(second_path, data):
    argv, _, _ = data.draw(invocations(second_path))
    assert parsed(cli.build_parser(argv), argv) == parsed(cli.build_parser(), argv)

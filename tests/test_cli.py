"""End-to-end CLI tests, run in process except two through `python -m`:
pinned output bytes, exit codes, format switches, and the self-check's
fault sensitivity."""

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
import oni_kit.verify
from oni_kit import (
    Base,
    CapExceeded,
    Graph,
    InputError,
    SpernerFamily,
    Split,
    certificate_to_json_obj,
    certify_tree_gvd,
    cli,
    even_stable_complex,
    odd_oni,
)

P6_DOC = (
    '{"vertices":["0","1","2","3","4","5","6"],'
    '"edges":[["0","1"],["1","2"],["2","3"],["3","4"],["4","5"],["5","6"]]}\n'
)
P6_TD_SETS = (
    '{"minimal_td_sets":[["0","1","4","5"],["1","2","4","5"],["1","2","5","6"]]}\n'
)
P6_ODD_ONI = (
    '{"universe":["0","2","4","6"],'
    '"generators":[["0","2"],["2","4"],["4","6"]],"zero":false,"unit":false}\n'
)
BEG_A_TAU = (
    '{"universe":["v1","v2","v3","v4","v5"],'
    '"sets":[["v1","v3"],["v1","v5"],["v2","v3"],["v2","v4"],["v3","v4"]]}\n'
)
EVEN_STABLE_P6 = (
    '{"universe":["0","2","4","6"],'
    '"facets":[["0","4"],["0","6"],["2","6"]],"kind":"ordinary"}\n'
)
ZERO_IDEAL = '{"universe":["a","b"],"generators":[],"zero":true,"unit":false}'
NOT_UTF8 = b'{"universe":["\xff"],"sets":[]}'
T_A_CERTIFIED = (
    '{"ideal":{"universe":["l1","l2","l3","l4","u1","u2","u3"],"generators":[["l1","u1"],'
    '["l2","u2"],["u1","u2"],["u2","u3"],["l3","l4","u3"]],"zero":false,"unit":false},'
    '"certificate":{"split":{"y":"u1","C":{"split":{"y":"l1","C":{"base":"unit"},'
    '"N":{"split":{"y":"u2","C":{"base":"unit"},"N":{"split":{"y":"l3",'
    '"C":{"split":{"y":"l4","C":{"base":"vars"},"N":{"base":"zero"}}},'
    '"N":{"base":"zero"}}}}}}},"N":{"split":{"y":"u2","C":{"base":"vars"},'
    '"N":{"split":{"y":"l3","C":{"split":{"y":"l4","C":{"base":"vars"},'
    '"N":{"base":"zero"}}},"N":{"base":"zero"}}}}}}},"valid":true}\n'
)
TWIN_BROOM_CERTIFIED = (
    '{"ideal":{"universe":["l1","l2","lp1","lp2","u","up"],"generators":[["u","up"],'
    '["l1","l2","u"],["lp1","lp2","up"]],"zero":false,"unit":false},'
    '"certificate":{"split":{"y":"u","C":{"split":{"y":"up","C":{"base":"unit"},'
    '"N":{"split":{"y":"l1","C":{"base":"vars"},"N":{"base":"zero"}}}}},'
    '"N":{"split":{"y":"lp1","C":{"split":{"y":"lp2","C":{"base":"vars"},'
    '"N":{"base":"zero"}}},"N":{"base":"zero"}}}}},"valid":true}\n'
)
O_SEQ_314_CERTIFIED = (
    '{"ideal":{"universe":["0","2","4","6","p1_0","p1_2","p2_0","p3_0","p3_2"],'
    '"generators":[["4","6"],["4","p3_2"],["p1_0","p1_2"],["p3_0","p3_2"],["0","2",'
    '"p2_0"],["2","4","p1_2"]],"zero":false,"unit":false},'
    '"certificate":{"split":{"y":"2","C":{"split":{"y":"0","C":{"split":{"y":"p2_0",'
    '"C":{"base":"unit"},"N":{"split":{"y":"p1_2","C":{"split":{"y":"p1_0",'
    '"C":{"base":"unit"},"N":{"split":{"y":"4","C":{"base":"unit"},'
    '"N":{"split":{"y":"p3_0","C":{"base":"vars"},"N":{"base":"zero"}}}}}}},'
    '"N":{"split":{"y":"4","C":{"base":"vars"},"N":{"split":{"y":"p3_0",'
    '"C":{"base":"vars"},"N":{"base":"zero"}}}}}}}}},"N":{"split":{"y":"p1_2",'
    '"C":{"split":{"y":"p1_0","C":{"base":"unit"},"N":{"split":{"y":"4",'
    '"C":{"base":"unit"},"N":{"split":{"y":"p3_0","C":{"base":"vars"},'
    '"N":{"base":"zero"}}}}}}},"N":{"split":{"y":"4","C":{"base":"vars"},'
    '"N":{"split":{"y":"p3_0","C":{"base":"vars"},"N":{"base":"zero"}}}}}}}}},'
    '"N":{"split":{"y":"4","C":{"split":{"y":"6","C":{"base":"unit"},'
    '"N":{"split":{"y":"p3_2","C":{"base":"unit"},"N":{"split":{"y":"p1_0",'
    '"C":{"base":"vars"},"N":{"base":"zero"}}}}}}},"N":{"split":{"y":"p3_0",'
    '"C":{"split":{"y":"p3_2","C":{"base":"unit"},"N":{"split":{"y":"p1_0",'
    '"C":{"base":"vars"},"N":{"base":"zero"}}}}},"N":{"split":{"y":"p1_0",'
    '"C":{"base":"vars"},"N":{"base":"zero"}}}}}}}}},"valid":true}\n'
)


@pytest.fixture
def invoke(monkeypatch, capsys):
    def run(argv, stdin=""):
        if isinstance(stdin, bytes):  # decoded as a child's stdin under a UTF-8 or POSIX locale
            stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", errors="surrogateescape")
        else:
            stdin = io.StringIO(stdin)
        monkeypatch.setattr("sys.stdin", stdin)
        code = cli.main(argv)
        return code, capsys.readouterr().out

    return run


# ---------------------------------------------------------------------------
# pinned documents


def test_fixture_and_build_agree(invoke):
    code, out = invoke(["fixture", "p6"])
    assert code == 0 and out == P6_DOC
    code, out = invoke(["build", "path", "--n", "6"])
    assert code == 0 and out == P6_DOC


def test_td_sets_pinned_bytes(invoke):
    code, out = invoke(["graph", "td-sets"], stdin=P6_DOC)
    assert code == 0 and out == P6_TD_SETS


def test_dualize_pinned_bytes(invoke):
    _, family = invoke(["fixture", "beg_a"])
    code, out = invoke(["dualize"], stdin=family)
    assert code == 0 and out == BEG_A_TAU


def test_reruns_are_byte_identical(invoke):
    first = invoke(["graph", "odd-oni"], stdin=P6_DOC)
    second = invoke(["graph", "odd-oni"], stdin=P6_DOC)
    assert first == second == (0, P6_ODD_ONI)


def test_even_stable_pinned_bytes(invoke):
    code, out = invoke(["graph", "even-stable"], stdin=P6_DOC)
    assert code == 0 and out == EVEN_STABLE_P6


def test_heights_document(invoke):
    code, out = invoke(["graph", "heights"], stdin=P6_DOC)
    assert code == 0
    doc = json.loads(out)
    assert doc["heights"]["3"] == 3
    assert doc["height"] == 3 and doc["balanced"] is True
    assert doc["odd"] == ["1", "3", "5"] and doc["even"] == ["0", "2", "4", "6"]


def test_seed_variable_changes_nothing(invoke, monkeypatch):
    baseline = invoke(["graph", "td-sets"], stdin=P6_DOC)
    monkeypatch.setenv("ONI_KIT_SEED", "7")
    assert invoke(["graph", "td-sets"], stdin=P6_DOC) == baseline


# ---------------------------------------------------------------------------
# output plumbing


def test_pretty_output(invoke):
    code, out = invoke(["graph", "oni", "--pretty"], stdin=P6_DOC)
    assert code == 0
    assert out.startswith("{\n  ") and out.endswith("\n")
    compact = invoke(["graph", "oni"], stdin=P6_DOC)[1]
    assert json.loads(out) == json.loads(compact)


def test_out_flag(invoke, tmp_path):
    target = tmp_path / "result.json"
    code, out = invoke(["graph", "td-sets", "--out", str(target)], stdin=P6_DOC)
    assert code == 0 and out == ""
    assert target.read_text() == P6_TD_SETS
    code, out = invoke(["graph", "td-sets", "--out", str(tmp_path)], stdin=P6_DOC)
    assert code == 2 and "cannot write" in json.loads(out)["error"]


def test_input_file_and_text_format(invoke, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n")
    code, out = invoke(["graph", "td-sets", "--format", "text", "--in", str(path)])
    assert code == 0 and out == P6_TD_SETS
    code, out = invoke(["graph", "td-sets", "--in", str(tmp_path / "nope.json")])
    assert code == 2 and "cannot read" in json.loads(out)["error"]


# ---------------------------------------------------------------------------
# the verb table and help


def test_readme_lists_the_verb_table():
    """README's "Subcommands:" line names the verb table's groups and verbs
    in table order.  The fuzz test reads its verbs from the table, so this
    is the test that catches a verb dropped or renamed."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = " ".join(readme.split("\nSubcommands: ", 1)[1].split("\n\n", 1)[0].split())
    menus: dict[str, list[str]] = {}
    for verb in cli._VERBS:
        group, _, name = verb.path.rpartition(" ")
        menus.setdefault(group or name, []).append(name)
    expected = "; ".join(
        f"`{key}`" if names == [key] else f"`{key} {{{'|'.join(names)}}}`"
        for key, names in menus.items()
    )
    assert listed == expected + "."


def test_help_is_usage_text_returned_through_main(invoke):
    """-h/--help, the one output that is not JSON, returns 0 through `main`.
    A verb's input options follow from its row: one document adds --in, two
    add --with, and a graph adds --format."""
    common = {"--help", "--out", "--pretty", "--assert"}
    for path, options in (
        ("gvd check", {"--in"}),
        ("ideal equal", {"--in", "--with"}),
        ("graph oni", {"--in", "--format"}),
        ("build edge-join", {"--in", "--format", "--with", "--v1", "--v2"}),
        ("build path", {"--n"}),
        ("fixture", set()),
        ("verify-paper", set()),
    ):
        for flag in ("--help", "-h"):
            code, out = invoke([*path.split(), flag])
            assert code == 0 and out.startswith(f"usage: oni-kit {path} [-h]")
            assert set(re.findall(r"--[\w-]+", out)) == common | options
    code, out = invoke(["--help"])
    assert code == 0 and out.startswith("usage: oni-kit [-h] COMMAND ...")


def test_help_wraps_at_one_width_on_every_terminal(invoke, monkeypatch):
    """Help text wraps at a fixed width, whatever `COLUMNS` says: the top
    level, a group and a verb print the same help on every terminal."""
    for argv in (["-h"], ["gvd", "-h"], ["graph", "-h"], ["gvd", "split", "-h"]):
        monkeypatch.delenv("COLUMNS", raising=False)
        unset = invoke(argv)
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert invoke(argv) == unset


def test_options_must_be_spelled_in_full(invoke):
    for argv, flag in ((["graph", "oni", "--pre"], "--pre"), (["verify-paper", "--as"], "--as")):
        code, out = invoke(argv, stdin=P6_DOC)
        assert code == 2
        assert json.loads(out) == {"error": f"bad arguments: unrecognized arguments: {flag}"}
    code, out = invoke(["graph", "oni", "--pretty"], stdin=P6_DOC)
    assert code == 0 and out.startswith("{\n  ")
    assert invoke(["verify-paper", "--assert"]) == invoke(["verify-paper"])


def test_a_verb_invocation_builds_only_its_own_parsers(invoke, monkeypatch):
    """`main` builds the top parser, the verb's group and the verb, not the
    whole menu: one parser per word of the verb's path, plus the top."""
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    assert invoke(["gvd", "check"], stdin=ZERO_IDEAL)[0] == 0
    assert built == ["oni-kit", "oni-kit gvd", "oni-kit gvd check"]
    built.clear()
    assert invoke(["fixture", "p6"]) == (0, P6_DOC)
    assert built == ["oni-kit", "oni-kit fixture"]
    for verb in cli._VERBS:
        built.clear()
        cli.build_parser([*verb.path.split(), "--pretty"])
        assert len(built) == len(verb.path.split()) + 1
    built.clear()
    cli.build_parser()
    assert len(built) == 1 + len(cli._GROUPS) + len(cli._VERBS)


def child(argv, locale=None, **options):
    """`python -m oni_kit.cli argv` run to completion with `src` on its
    path, under `locale` if one is given, with stdin decoded as that locale
    has it; `options` go to `subprocess.run`."""
    env = dict(os.environ)
    if locale:
        env.update(LC_ALL=locale)
        env.pop("PYTHONIOENCODING", None)
        env.pop("PYTHONUTF8", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "oni_kit.cli", *argv], **options,
                          env=env, timeout=60, check=False)


def run_child(argv, stdin, locale=None):
    """Exit code and stdout of the CLI child fed the bytes `stdin`.
    `stdin=None` closes the child's file descriptor 0."""
    closing = {"preexec_fn": lambda: os.close(0)} if stdin is None else {"input": stdin}
    done = child(argv, locale, **closing, capture_output=True)
    return done.returncode, done.stdout.decode()


def test_python_m_matches_main_in_process(invoke):
    """`python -m oni_kit.cli` parses `sys.argv[1:]`, the path every real
    invocation takes, and prints what `main(argv)` prints in process."""
    for argv, stdin in (
        (["graph", "td-sets"], P6_DOC),
        (["gvd", "check", "-h"], ""),
        (["gvd", "-h"], ""),
        (["-h"], ""),
        (["nope"], ""),
        (["dualize"], NOT_UTF8),
    ):
        data = stdin if isinstance(stdin, bytes) else stdin.encode()
        assert run_child(argv, data) == invoke(argv, stdin)
    assert invoke(["graph", "td-sets"], P6_DOC) == (0, P6_TD_SETS)
    code, out = invoke(["dualize"], NOT_UTF8)
    assert code == 2 and json.loads(out)["error"].startswith("cannot read stdin: ")


CLOSED_STDIN = '{"error":"cannot read stdin: it is closed"}\n'


def test_no_stdin_is_unreadable(monkeypatch, capsys):
    # the interpreter sets sys.stdin to None when file descriptor 0 is closed
    monkeypatch.setattr("sys.stdin", None)
    assert cli.main(["dualize"]) == 2
    assert capsys.readouterr().out == CLOSED_STDIN


def test_closed_stdin_exits_2_with_one_json_line():
    assert run_child(["dualize"], None) == (2, CLOSED_STDIN)


def test_no_stdout_is_unwritable(invoke, monkeypatch, capsys, tmp_path):
    # the interpreter sets sys.stdout to None when file descriptor 1 is
    # closed: a result and an error both exit 2, and --out still writes
    code, expected = invoke(["fixture", "p6"])
    assert code == 0
    monkeypatch.setattr("sys.stdout", None)
    assert cli.main(["fixture", "p6"]) == 2
    assert cli.main(["nope"]) == 2
    target = tmp_path / "p6.json"
    assert cli.main(["fixture", "p6", "--out", str(target)]) == 0
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")
    assert target.read_text() == expected


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    closing = {"preexec_fn": lambda: os.close(1), "stdin": subprocess.DEVNULL,
               "stderr": subprocess.PIPE}
    for argv in (["fixture", "p6"], ["nope"]):
        done = child(argv, **closing)
        assert (done.returncode, done.stderr) == (2, b"")
    target = tmp_path / "p6.json"
    done = child(["fixture", "p6", "--out", str(target)], **closing)
    assert (done.returncode, done.stderr) == (0, b"")
    assert target.read_text() == run_child(["fixture", "p6"], b"")[1]


words = st.sampled_from(["a", "b", "0", "\u00e9", "\u2603"])
families = st.fixed_dictionaries(
    {"universe": st.lists(words, unique=True, max_size=3),
     "sets": st.lists(st.lists(words, unique=True, max_size=2), max_size=3)}
).map(lambda doc: json.dumps(doc, ensure_ascii=False))
edge_lists = st.lists(st.tuples(words, words), max_size=4).map(
    lambda edges: "".join(f"{u} {v}\n" for u, v in edges)
)


@st.composite
def stdin_bytes(draw):
    """A family document, an edge list or any text, as UTF-8, and about
    half the time with one to three arbitrary bytes spliced in."""
    data = draw(st.one_of(families, edge_lists, st.text(max_size=12))).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


@given(argv=st.sampled_from([["dualize"], ["graph", "oni", "--format", "text"]]),
       stdin=stdin_bytes(), locale=st.sampled_from(["C.UTF-8", "POSIX"]))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # invoke patches per call
def test_child_processes_keep_the_output_contract(invoke, argv, stdin, locale):
    """Through a real interpreter, which decodes stdin by its locale: exit
    0, 1 or 2, one JSON line, and what `main(argv)` prints in process."""
    code, out = run_child(argv, stdin, locale)
    assert code in (0, 1, 2)
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out)
    assert (code, out) == invoke(argv, stdin)


# ---------------------------------------------------------------------------
# exit codes


def test_assert_flag_drives_exit_code(invoke):
    square = json.dumps(
        {"vertices": ["a", "b", "c", "d"],
         "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]}
    )
    code, out = invoke(["graph", "chordal"], stdin=square)
    assert code == 0 and json.loads(out) == {"chordal": False}
    code, out = invoke(["graph", "chordal", "--assert"], stdin=square)
    assert code == 1 and json.loads(out) == {"chordal": False}
    code, out = invoke(["graph", "chordal", "--assert"], stdin=P6_DOC)
    assert code == 0


def test_assert_without_boolean_result(invoke):
    code, out = invoke(["graph", "oni", "--assert"], stdin=P6_DOC)
    assert code == 2
    assert json.loads(out)["error"] == "this subcommand has no boolean result to assert"


def test_malformed_inputs_exit_2(invoke, tmp_path):
    code, out = invoke(["graph", "oni"], stdin="{not json")
    assert code == 2 and json.loads(out)["error"].startswith("invalid JSON:")
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"universe":["\xff"],"sets":[]}')
    for argv in (
        ["dualize", "--in", str(not_utf8)],
        ["ideal", "equal", "--with", str(not_utf8)],
        ["graph", "oni", "--format", "text", "--in", str(not_utf8)],
    ):
        code, out = invoke(argv, stdin=ZERO_IDEAL)
        assert code == 2 and out.count("\n") == 1
        assert json.loads(out)["error"].startswith(f"cannot read {str(not_utf8)!r}: ")
    code, out = invoke(["dualize"], stdin=b"\xff")
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out)["error"].startswith("cannot read stdin: ")
    code, out = invoke(["graph", "oni"], stdin='{"vertices":["a"]}')
    assert code == 2 and "graph JSON" in json.loads(out)["error"]
    code, out = invoke(["no-such-command"])
    assert code == 2 and json.loads(out)["error"].startswith("bad arguments:")
    code, out = invoke(["ideal", "equal"], stdin=ZERO_IDEAL)
    assert code == 2 and json.loads(out)["error"].startswith("bad arguments:")
    deep = '{"base":"zero"}'
    for _ in range(3000):
        deep = '{"split":{"y":"a","C":%s,"N":{"base":"zero"}}}' % deep
    code, out = invoke(["gvd", "validate"], stdin='{"ideal":%s,"certificate":%s}' % (ZERO_IDEAL, deep))
    assert code == 2 and out == '{"error":"invalid JSON: nested too deeply"}\n'
    for doc in ('{"universe":["a",["b"]],"sets":[]}', '{"universe":["a"],"sets":[[["a"]]]}'):
        code, out = invoke(["dualize"], stdin=doc)
        assert code == 2 and out.count("\n") == 1 and "error" in json.loads(out)
    # a string is never read as a list of one-character labels
    for argv, doc, error in (
        (["dualize"], '{"universe":["a","b"],"sets":["ab"]}',
         'family JSON "sets" must be a list of lists'),
        (["dualize"], '{"universe":["a"],"sets":"a"}',
         'family JSON "sets" must be a list of lists'),
        (["dualize"], '{"universe":"ab","sets":[]}', 'family JSON "universe" must be a list'),
        (["graph", "heights"], '{"vertices":"ab","edges":[]}',
         'graph JSON "vertices" must be a list'),
        (["ideal", "primes"], '{"universe":["a","b"],"generators":["ab"]}',
         'ideal JSON "generators" must be a list of lists'),
        (["complex", "vd"], '{"universe":["a","b"],"facets":["ab"]}',
         'complex JSON "facets" must be a list of lists'),
        (["ideal", "primes"], '{"universe":["a"],"generators":[],"zero":[]}',
         'ideal JSON flag "zero" must be true or false'),
        (["ideal", "primes"], '{"universe":["a"],"generators":[["a"]],"unit":"no"}',
         'ideal JSON flag "unit" must be true or false'),
        (["complex", "vd"], '{"universe":["a"],"facets":[["a"]],"kind":[]}',
         'complex JSON "kind" must be a string'),
    ):
        code, out = invoke(argv, stdin=doc)
        assert (code, out) == (2, json.dumps({"error": error}, separators=(",", ":")) + "\n")


def test_input_deeper_than_the_stack_exits_2(invoke):
    # a star is a balanced TD-unmixed tree; its certificate is a chain with
    # one split per leaf, too deep to replay or to write as JSON text
    leaves = [f"l{i}" for i in range(sys.getrecursionlimit() + 100)]
    star = Graph.from_vertices(["c", *leaves], [("c", v) for v in leaves])
    cert = certify_tree_gvd(star)
    assert isinstance(cert, Split) and cert.variable == sorted(leaves)[0]
    code, out = invoke(["gvd", "certify-tree"], stdin=json.dumps(star.to_json_obj()))
    assert code == 2 and out == '{"error":"input too deep to process"}\n'


def bound_error(count):
    return f'{{"error":"certificate expands to {count} nodes in JSON, past the bound of 1048576"}}\n'


def test_certificates_past_the_tree_bound_exit_2_at_once(invoke):
    forest = json.dumps(oracles.disjoint_paths(20).to_json_obj())
    start = time.process_time()
    code, out = invoke(["gvd", "certify-tree"], stdin=forest)
    assert time.process_time() - start < 1.0
    assert (code, out) == (2, bound_error(3**21 - 4))
    ideal = json.dumps(odd_oni(oracles.disjoint_paths(12)).to_json_obj())
    assert invoke(["gvd", "check"], stdin=ideal) == (2, bound_error(95716414023))
    ideal = json.dumps(odd_oni(oracles.disjoint_paths(20)).to_json_obj())
    assert invoke(["gvd", "check"], stdin=ideal) == (2, bound_error("more than 10^18"))


def test_tree_bound_stops_counting_past_10_to_the_18():
    # both branches of each split are the split below: 2^15001 - 1 nodes,
    # a count whose decimal text passes the interpreter's 4,300-digit limit
    node = Base("vars")
    for i in range(15000):
        node = Split(f"y{i}", node, node)
    error = "certificate expands to more than 10^18 nodes in JSON, past the bound of 1048576"
    with pytest.raises(InputError) as caught:
        cli._require_tree_size(node, "c_branch", "n_branch")
    assert str(caught.value) == error


def test_deep_chain_certificate_encodes_and_counts(monkeypatch):
    # the 1,500-leaf star's certificate is a chain of 1,499 splits, each
    # with the zero base as N, ending in the variable base: 2,999 nodes,
    # deeper than the default recursion limit
    leaves = sorted(f"l{i}" for i in range(1500))
    star = Graph.from_vertices(["c", *leaves], [("c", v) for v in leaves])
    cert = certify_tree_gvd(star)
    node = certificate_to_json_obj(cert)
    for y in leaves[:-1]:
        assert node["split"]["y"] == y and node["split"]["N"] == {"base": "zero"}
        node = node["split"]["C"]
    assert node == {"base": "vars"}
    cli._require_tree_size(cert, "c_branch", "n_branch")
    monkeypatch.setattr(cli, "_TREE_NODE_BOUND", 2998)
    with pytest.raises(InputError, match="expands to 2999 nodes in JSON"):
        cli._require_tree_size(cert, "c_branch", "n_branch")


@pytest.mark.parametrize(
    "argv, document, nodes",
    [
        (["gvd", "certify-tree"], lambda: oracles.disjoint_paths(3), 3**4 - 4),
        (["complex", "vd"], lambda: even_stable_complex(oracles.disjoint_paths(3)), 53),
    ],
    ids=["certify-tree", "complex-vd"],
)
def test_tree_bound_counts_every_node(invoke, monkeypatch, argv, document, nodes):
    # a certificate of exactly the bound's size is written in full
    stdin = json.dumps(document().to_json_obj())
    monkeypatch.setattr(cli, "_TREE_NODE_BOUND", nodes)
    code, out = invoke(argv, stdin=stdin)
    assert code == 0 and out.count('"C":') + out.count('"del":') == (nodes - 1) // 2
    monkeypatch.setattr(cli, "_TREE_NODE_BOUND", nodes - 1)
    error = f"certificate expands to {nodes} nodes in JSON, past the bound of {nodes - 1}"
    assert invoke(argv, stdin=stdin) == (2, json.dumps({"error": error}, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# ideal arithmetic across universes


def test_ideal_sum_rebases_to_union_universe(invoke, tmp_path):
    second = tmp_path / "right.json"
    second.write_text('{"universe":["c"],"generators":[["c"]],"zero":false,"unit":false}')
    left = '{"universe":["a","b"],"generators":[["a"]],"zero":false,"unit":false}'
    code, out = invoke(["ideal", "sum", "--with", str(second)], stdin=left)
    assert code == 0
    doc = json.loads(out)
    assert doc["universe"] == ["a", "b", "c"]
    assert doc["generators"] == [["a"], ["c"]]


def test_ideal_equality_is_strict_about_universes(invoke, tmp_path):
    second = tmp_path / "right.json"
    second.write_text('{"universe":["a","b","c"],"generators":[["a"]],"zero":false,"unit":false}')
    left = '{"universe":["a","b"],"generators":[["a"]],"zero":false,"unit":false}'
    code, out = invoke(["ideal", "equal", "--with", str(second)], stdin=left)
    assert code == 0 and json.loads(out) == {"equal": False}
    code, _ = invoke(["ideal", "equal", "--assert", "--with", str(second)], stdin=left)
    assert code == 1


def test_ideal_primes_and_unmixed(invoke):
    code, out = invoke(["ideal", "primes"], stdin=P6_ODD_ONI)
    assert code == 0
    assert json.loads(out) == {
        "minimal_primes": [["0", "4"], ["2", "4"], ["2", "6"]]
    }
    code, out = invoke(["ideal", "unmixed"], stdin=P6_ODD_ONI)
    assert code == 0 and json.loads(out) == {"unmixed": True}
    mixed = '{"universe":["2","4","6"],"generators":[["2","4"],["4","6"]],"zero":false,"unit":false}'
    code, out = invoke(["ideal", "unmixed", "--assert"], stdin=mixed)
    assert code == 1 and json.loads(out) == {"unmixed": False}


# ---------------------------------------------------------------------------
# complex subcommands


def test_complex_vd_certificate(invoke):
    code, out = invoke(["complex", "vd", "--assert"], stdin=EVEN_STABLE_P6)
    assert code == 0
    doc = json.loads(out)
    assert doc["vertex_decomposable"] is True
    assert doc["certificate"]["shed"] == "2"


def test_complex_tree_and_cycle(invoke):
    chain = json.dumps(
        {"universe": ["a", "b", "c", "d", "e", "f"],
         "facets": [["a", "b", "c"], ["c", "d"], ["d", "e", "f"]]}
    )
    code, out = invoke(["complex", "tree"], stdin=chain)
    assert code == 0
    assert json.loads(out) == {"simplicial_forest": True, "simplicial_tree": True}

    pair = json.dumps({"universe": ["a", "b", "c", "d"], "facets": [["a", "b"], ["c", "d"]]})
    code, out = invoke(["complex", "tree", "--assert"], stdin=pair)
    assert code == 1
    assert json.loads(out) == {"simplicial_forest": True, "simplicial_tree": False}

    triangle = json.dumps(
        {"universe": ["a", "b", "c"], "facets": [["a", "b"], ["a", "c"], ["b", "c"]]}
    )
    code, out = invoke(["complex", "cycle"], stdin=triangle)
    assert code == 0
    assert json.loads(out) == {
        "cycle": True,
        "order": [["a", "b"], ["a", "c"], ["b", "c"]],
    }


def test_complex_join(invoke, tmp_path):
    second = tmp_path / "right.json"
    second.write_text('{"universe":["x"],"facets":[["x"]]}')
    left = '{"universe":["a","b"],"facets":[["a"],["b"]]}'
    code, out = invoke(["complex", "join", "--with", str(second)], stdin=left)
    assert code == 0
    doc = json.loads(out)
    assert doc["universe"] == ["a", "b", "x"]
    assert doc["facets"] == [["a", "x"], ["b", "x"]]


# ---------------------------------------------------------------------------
# graph constructions and decomposition


def test_graph_decompose(invoke):
    code, out = invoke(["graph", "decompose", "--assert"], stdin=P6_DOC)
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert set(doc["t1"]) == {"vertices", "edges"} and set(doc["t2"]) == {"vertices", "edges"}

    # trees whose strata are not balanced decompose at their bipartition
    for tree in (oracles.tree_past_search_bound(), oracles.tree_past_class_bound()):
        code, out = invoke(["graph", "decompose", "--assert"], stdin=json.dumps(tree.to_json_obj()))
        assert code == 0 and json.loads(out)["found"] is True

    # only trees on at most 2 vertices have no decomposition
    k2 = json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]})
    code, out = invoke(["graph", "decompose", "--assert"], stdin=k2)
    assert code == 1 and out == '{"found":false,"t1":null,"t2":null}\n'


def test_graph_unmixed_reports_both_views(invoke):
    code, out = invoke(["graph", "unmixed"], stdin=P6_DOC)
    assert code == 0
    assert json.loads(out) == {"td_unmixed": True, "structurally_td_unmixed": True}
    square = json.dumps(
        {"vertices": ["a", "b", "c", "d"],
         "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]}
    )
    code, out = invoke(["graph", "unmixed"], stdin=square)
    assert code == 0
    assert json.loads(out)["structurally_td_unmixed"] is None


@pytest.mark.parametrize(
    "vertices, edges, expected",
    [
        (["a"], [], '{"td_unmixed":true,"structurally_td_unmixed":true}\n'),  # K1
        (["a", "b"], [["a", "b"]], '{"td_unmixed":true,"structurally_td_unmixed":null}\n'),
        (["a", "b", "c"], [["a", "b"]], '{"td_unmixed":true,"structurally_td_unmixed":null}\n'),
        ([], [], '{"td_unmixed":true,"structurally_td_unmixed":null}\n'),
    ],
    ids=["K1", "K2", "edge-and-isolated-vertex", "empty"],
)
def test_graph_unmixed_pinned_on_degenerate_graphs(invoke, vertices, edges, expected):
    # today's answers, pinned before unmixedness is decided another way
    graph = json.dumps({"vertices": vertices, "edges": edges})
    code, out = invoke(["graph", "unmixed"], stdin=graph)
    assert code == 0 and out == expected


def test_ideal_unmixed_pinned_on_degenerate_ideals(invoke):
    one_generator = '{"universe":["a","b","c"],"generators":[["a","b"]]}'
    for ideal in (ZERO_IDEAL, one_generator):
        code, out = invoke(["ideal", "unmixed", "--assert"], stdin=ideal)
        assert code == 0 and out == '{"unmixed":true}\n'


def test_build_o_seq(invoke):
    code, out = invoke(["build", "o-seq"], stdin="[]")
    assert code == 0 and out == P6_DOC
    from_list = invoke(["build", "o-seq"], stdin='["1"]')
    from_dict = invoke(["build", "o-seq"], stdin='{"picks":["1"]}')
    assert from_list == from_dict and from_list[0] == 0
    code, out = invoke(["build", "o-seq"], stdin='{"other":[]}')
    assert code == 2 and "o-seq input must be a list" in json.loads(out)["error"]
    code, out = invoke(["build", "o-seq"], stdin='{"picks":"1"}')
    assert code == 2 and json.loads(out)["error"] == "picks must be a list of vertex labels"
    code, out = invoke(["build", "o-seq"], stdin='["0"]')
    assert code == 2 and json.loads(out)["error"].startswith("step 0:")


def test_build_edge_join(invoke, tmp_path):
    second = tmp_path / "right.json"
    second.write_text('{"vertices":["c","d"],"edges":[["c","d"]]}')
    left = '{"vertices":["a","b"],"edges":[["a","b"]]}'
    code, out = invoke(
        ["build", "edge-join", "--with", str(second), "--v1", "b", "--v2", "c"],
        stdin=left,
    )
    assert code == 0
    assert json.loads(out)["edges"] == [["a", "b"], ["b", "c"], ["c", "d"]]
    second.write_text('{"vertices":["b"],"edges":[]}')
    code, out = invoke(
        ["build", "edge-join", "--with", str(second), "--v1", "a", "--v2", "b"],
        stdin=left,
    )
    assert code == 2 and "disjoint labels" in json.loads(out)["error"]


def test_build_realize(invoke):
    _, family = invoke(["fixture", "beg_a"])
    code, out = invoke(["build", "realize"], stdin=family)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 10
    assert {"t1", "t2", "t3", "t4", "t5"} < set(doc["vertices"])


def test_fixture_unknown_name(invoke):
    code, out = invoke(["fixture", "nosuch"])
    assert code == 2 and "unknown fixture" in json.loads(out)["error"]


# ---------------------------------------------------------------------------
# gvd subcommands


def test_gvd_check_zero_ideal(invoke):
    code, out = invoke(["gvd", "check"], stdin=ZERO_IDEAL)
    assert code == 0 and out == '{"gvd":true,"certificate":{"base":"zero"}}\n'


def test_gvd_split(invoke):
    code, out = invoke(["gvd", "split", "--var", "2"], stdin=P6_ODD_ONI)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["C"]["universe"] == ["0", "4", "6"]
    assert doc["C"]["generators"] == [["0"], ["4"]]
    assert doc["N"]["generators"] == [["4", "6"]]
    code, out = invoke(["gvd", "split", "--var", "z"], stdin=P6_ODD_ONI)
    assert code == 2 and "variable 'z'" in json.loads(out)["error"]


P6_ODD_SPLIT_AT_2 = (
    '{"C":{"universe":["0","4","6"],"generators":[["0"],["4"]],"zero":false,"unit":false},'
    '"N":{"universe":["0","4","6"],"generators":[["4","6"]],"zero":false,"unit":false},'
    '"valid":true}\n'
)
UNIT_B = '{"universe":["b"],"generators":[[]],"zero":false,"unit":true}'
ZERO_B = '{"universe":["b"],"generators":[],"zero":true,"unit":false}'
BC = '{"universe":["b","c"],"generators":[["b","c"]],"zero":false,"unit":false}'


@pytest.mark.parametrize(
    "ideal, argv, expected",
    [
        (P6_ODD_ONI, ["--var", "2"], P6_ODD_SPLIT_AT_2),
        (P6_ODD_ONI, ["--var", "2", "--assert"], P6_ODD_SPLIT_AT_2),
        ('{"universe":["a","b"],"generators":[[]]}', ["--var", "a"],
         '{"C":%s,"N":%s,"valid":true}\n' % (UNIT_B, UNIT_B)),
        (ZERO_IDEAL, ["--var", "a"], '{"C":%s,"N":%s,"valid":true}\n' % (ZERO_B, ZERO_B)),
        ('{"universe":["a","b"],"generators":[["a"],["b"]]}', ["--var", "a"],
         '{"C":%s,"N":{"universe":["b"],"generators":[["b"]],"zero":false,"unit":false},'
         '"valid":true}\n' % UNIT_B),
        ('{"universe":["a","b","c"],"generators":[["b","c"]]}', ["--var", "a"],
         '{"C":%s,"N":%s,"valid":true}\n' % (BC, BC)),
        (P6_ODD_ONI, ["--var", "z"], '{"error":"variable \'z\' not in the ideal\'s universe"}\n'),
    ],
    ids=["p6-odd-at-2", "assert", "unit", "zero", "C-unit", "C-equals-N", "unknown-variable"],
)
def test_gvd_split_pinned_bytes(invoke, ideal, argv, expected):
    code = 2 if expected.startswith('{"error"') else 0
    assert invoke(["gvd", "split", *argv], stdin=ideal) == (code, expected)


def test_gvd_certify_tree_then_validate(invoke):
    code, out = invoke(["gvd", "certify-tree"], stdin=P6_DOC)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    replay = json.dumps({"ideal": doc["ideal"], "certificate": doc["certificate"]})
    code, out = invoke(["gvd", "validate", "--assert"], stdin=replay)
    assert code == 0 and json.loads(out) == {"valid": True}
    code, out = invoke(["gvd", "validate"], stdin=json.dumps({"ideal": doc["ideal"]}))
    assert code == 2 and "expected a document" in json.loads(out)["error"]


def test_tree_certificates_pinned_bytes(invoke):
    _, t_a = invoke(["fixture", "t_a"])
    _, broom = invoke(["fixture", "twin_broom"])
    _, grown = invoke(["build", "o-seq"], stdin='["3","1","4"]')
    for graph, pinned in ((t_a, T_A_CERTIFIED), (broom, TWIN_BROOM_CERTIFIED), (grown, O_SEQ_314_CERTIFIED)):
        assert invoke(["gvd", "certify-tree"], stdin=graph) == (0, pinned)
    assert invoke(["graph", "split-vertex"], stdin=t_a) == (0, '{"split_vertex":"u1"}\n')


# ---------------------------------------------------------------------------
# the self-check


VERIFY_PAPER_IDS = (
    "dualization-quintet",
    "family-realization",
    "path-reference-values",
    "reference-tree-values",
    "splitting-steps",
    "intersection-identity",
    "induced-subtree-ideals",
    "decomposition-laws",
    "split-vertex-choice",
    "height-extensions",
    "gvd-decisions",
    "tree-certificates",
    "stable-complexes",
    "leaf-and-cycle-order",
    "shedding-examples",
    "chordality-controls",
    "facet-ideal-trees",
)


def test_verify_paper_passes(invoke):
    # the whole document: a renamed, dropped or reordered check changes it
    checks = ",".join(f'{{"id":"{name}","ok":true}}' for name in VERIFY_PAPER_IDS)
    want = f'{{"checks":[{checks}],"passed":17,"failed":0,"ok":true}}\n'
    assert invoke(["verify-paper"]) == (0, want)


def test_verify_paper_detects_broken_dualization(invoke, monkeypatch):
    real = oni_kit.verify.minimal_transversals

    def crippled(family):
        whole = real(family)
        return SpernerFamily(whole.universe, whole.masks[:-1])

    monkeypatch.setattr(oni_kit.verify, "minimal_transversals", crippled)
    code, out = invoke(["verify-paper"])
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    broken = {c["id"] for c in doc["checks"] if not c["ok"]}
    assert "dualization-quintet" in broken


def test_verify_paper_reports_a_raising_check(invoke, monkeypatch):
    def raising(family):
        raise CapExceeded("oracle refused")

    monkeypatch.setattr(oni_kit.verify, "brute_force_transversals", raising)
    code, out = invoke(["verify-paper"])
    assert code == 1
    doc = json.loads(out)
    failed = {c["id"]: c.get("detail", "") for c in doc["checks"] if not c["ok"]}
    assert failed == {"dualization-quintet": "raised CapExceeded: oracle refused"}

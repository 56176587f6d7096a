"""End-to-end CLI tests run in process: pinned output bytes, exit codes,
format switches, and the self-check's fault sensitivity."""

import io
import json
import re
import sys
from pathlib import Path

import pytest

import oracles
import oni_kit.verify
from oni_kit import CapExceeded, Graph, SpernerFamily, Split, certify_tree_gvd, cli

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
        if isinstance(stdin, bytes):  # decoded as under PYTHONIOENCODING=utf-8:strict
            stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", errors="strict")
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
    # one split per leaf, too deep to encode as JSON
    leaves = [f"l{i}" for i in range(sys.getrecursionlimit() + 100)]
    star = Graph.from_vertices(["c", *leaves], [("c", v) for v in leaves])
    cert = certify_tree_gvd(star)
    assert isinstance(cert, Split) and cert.variable == sorted(leaves)[0]
    code, out = invoke(["gvd", "certify-tree"], stdin=json.dumps(star.to_json_obj()))
    assert code == 2 and out == '{"error":"input too deep to process"}\n'


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


def test_verify_paper_passes(invoke):
    code, out = invoke(["verify-paper"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["failed"] == 0
    assert doc["passed"] == len(doc["checks"])


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
    def raising(family, cap=None):
        raise CapExceeded("oracle refused")

    monkeypatch.setattr(oni_kit.verify, "brute_force_transversals", raising)
    code, out = invoke(["verify-paper"])
    assert code == 1
    doc = json.loads(out)
    failed = {c["id"]: c.get("detail", "") for c in doc["checks"] if not c["ok"]}
    assert failed == {"dualization-quintet": "raised CapExceeded: oracle refused"}

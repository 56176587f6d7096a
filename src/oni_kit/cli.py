"""Command-line front end.

Each verb is declared once, as a row of `_VERBS`: its path, the kinds of
document it reads, its extra options, its help text and a computation that
returns ``(document, boolean result or None)``.  `build_parser`, the input
readers, ``--assert`` handling and dispatch are derived from the table: a
verb that reads one document takes ``--in`` (default stdin), a second one
``--with``, and a graph verb ``--format`` (``json`` or the plain edge-list
``text``).

An invocation whose argv starts with a verb's path builds the parsers of
that verb alone (the top, its group and the verb), not the 41 of the whole
menu; every other argv (help on the top or a group, an unknown verb) builds
the whole menu.  The output is the same either way, since one loop builds
the verb's parser in both (see `build_parser`).  Options must be spelled in
full: no parser accepts an abbreviated long option.

Every verb writes exactly one JSON document, and exits 0 on success, 1 when
an asserted boolean came out false, 2 on malformed input or a violated
precondition, such as a certificate whose JSON tree expansion passes
`_TREE_NODE_BOUND` nodes; with stdout closed it writes nothing there and
exits 2.  The one other output is ``-h``/``--help``, which prints usage
text and exits 0.  Identical invocations produce byte-identical output.

Computations call library functions and methods through this module's
globals at call time, as `verify` does, never through references captured
when the table is built: rebinding a module attribute (a benchmark tracer
counting calls, a test injecting a fault) reaches every verb.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple, Optional

from . import verify
from .complexes import (
    SimplicialComplex,
    cycle_order,
    facet_ideal,
    is_connected_complex,
    is_simplicial_forest,
    is_vertex_decomposable,
    join,
    minimal_vertex_covers,
    shedding_certificate_to_json,
    stanley_reisner_complex,
    stanley_reisner_ideal,
)
from .errors import InputError
from .fixtures import fixture_document
from .graphs import (
    Graph,
    HeightProfile,
    edge_join,
    even_stable_complex,
    find_split_vertex,
    is_chordal,
    is_structurally_td_unmixed,
    is_td_unmixed,
    minimal_odd_td_sets,
    minimal_td_sets,
    o_sequence,
    odd_oni,
    oni,
    path_graph,
    realize_as_oni,
    search_decomposition,
    stable_complex,
)
from .gvd import (
    certificate_from_json_obj,
    certificate_to_json_obj,
    certify_tree_gvd,
    is_gvd,
    is_valid_geometric_decomposition,
    split,
    validate_certificate,
)
from .ideals import SquareFreeIdeal
from .universe import (
    SpernerFamily,
    Universe,
    _fold,
    minimal_transversals,
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # help wraps at argparse's width with no terminal, whatever the terminal
        super().__init__(formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
                         **kwargs)

    def error(self, message: str):
        # argparse would print usage and exit; route through the JSON error path
        raise InputError(f"bad arguments: {message}")


# ---------------------------------------------------------------------------
# input / output plumbing


def _read_source(path: Optional[str]) -> str:
    stdin = path is None or path == "-"
    if stdin and sys.stdin is None:  # the interpreter's stdin when descriptor 0 is closed
        raise InputError("cannot read stdin: it is closed")
    try:
        if stdin:
            # strict UTF-8 as for a path, whatever the locale; io.StringIO has no reconfigure
            reconfigure = getattr(sys.stdin, "reconfigure", None)
            if reconfigure:
                reconfigure(encoding="utf-8", errors="strict")
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        source = "stdin" if stdin else repr(path)
        raise InputError(f"cannot read {source}: {exc}") from exc


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("invalid JSON: nested too deeply") from exc


def _picks(doc) -> list[str]:
    if isinstance(doc, dict):
        if set(doc) != {"picks"}:
            raise InputError('o-seq input must be a list or {"picks": [...]}')
        doc = doc["picks"]
    if not isinstance(doc, list) or not all(isinstance(v, str) for v in doc):
        raise InputError("picks must be a list of vertex labels")
    return doc


def _certified(doc):
    if not isinstance(doc, dict) or set(doc) != {"ideal", "certificate"}:
        raise InputError('expected a document {"ideal": ..., "certificate": ...}')
    ideal = SquareFreeIdeal.from_json_obj(doc["ideal"])
    return ideal, certificate_from_json_obj(doc["certificate"])


# each kind of input document, decoded from its parsed JSON
_DECODERS = {
    "family": lambda doc: SpernerFamily.from_json_obj(doc),
    "ideal": lambda doc: SquareFreeIdeal.from_json_obj(doc),
    "complex": lambda doc: SimplicialComplex.from_json_obj(doc),
    "graph": lambda doc: Graph.from_json_obj(doc),
    "picks": _picks,
    "certified": _certified,
}


def _read(kind: str, path: Optional[str], encoding: Optional[str]):
    if encoding == "text":  # only graph verbs take --format
        return Graph.from_text(_read_source(path))
    return _DECODERS[kind](_parse_json(_read_source(path)))


def _write_stdout(text: str) -> bool:
    """Write `text` to stdout and say whether it could: the interpreter
    sets sys.stdout to None when file descriptor 1 is closed."""
    if sys.stdout is None:
        return False
    sys.stdout.write(text)
    return True


def _emit(doc, args: dict) -> None:
    if args["pretty"]:
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = json.dumps(doc, separators=(",", ":")) + "\n"
    out = args["out"]
    if out is None or out == "-":
        if not _write_stdout(text):
            raise InputError("cannot write stdout: it is closed")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# computations: each returns (document, boolean result or None)

Result = tuple[dict, Optional[bool]]


def _encoded(value) -> Result:
    return value.to_json_obj(), None


def _sets(key: str, family: SpernerFamily) -> Result:
    return {key: [list(member) for member in family.members]}, None


def _flag(key: str, flag: bool) -> Result:
    return {key: flag}, flag


# The JSON text of a certificate spells out the tree expansion of its DAG,
# which can be exponentially larger (3^(k+1) - 4 nodes for the tree
# certificate of k disjoint 7-vertex paths); past this many nodes the CLI
# refuses to write it.
_TREE_NODE_BOUND = 1 << 20
# The count stops here: it only sizes the error, and the decimal text of a
# count past 4,300 digits raises ValueError.
_COUNT_CAP = 10**18


def _require_tree_size(cert, first: str, second: str) -> None:
    """Raise unless the tree expansion of the certificate DAG rooted at
    `cert`, whose inner nodes have the branches `first` and `second`, has
    at most `_TREE_NODE_BOUND` nodes.  The count is one `_fold`, so it
    takes one step per distinct node at any depth.  Counts saturate just
    past `_COUNT_CAP`."""
    count = _fold(cert, first, second, lambda node: 1,
                  lambda node, a, b: min(1 + a + b, _COUNT_CAP + 1))
    if count > _TREE_NODE_BOUND:
        told = "more than 10^18" if count > _COUNT_CAP else count
        raise InputError(
            f"certificate expands to {told} nodes in JSON, past the bound of {_TREE_NODE_BOUND}"
        )


def _verdict(key: str, decided: tuple, encode: Callable, *branches: str) -> Result:
    ok, cert = decided
    if cert is not None:
        _require_tree_size(cert, *branches)
        cert = encode(cert)
    return {key: ok, "certificate": cert}, ok


def _combined(left: SquareFreeIdeal, right: SquareFreeIdeal, operation: str) -> Result:
    """`left.operation(right)` after rebasing both operands onto the union
    universe, so piped documents with different variable sets still
    combine."""
    if left.universe != right.universe:
        merged = Universe(set(left.universe.labels) | set(right.universe.labels))
        left, right = left.extended_to(merged), right.extended_to(merged)
    return _encoded(getattr(left, operation)(right))


def _complex_tree(cx: SimplicialComplex) -> Result:
    forest = is_simplicial_forest(cx)
    tree = forest and is_connected_complex(cx)
    return {"simplicial_forest": forest, "simplicial_tree": tree}, tree


def _complex_cycle(cx: SimplicialComplex) -> Result:
    order = cycle_order(cx)
    found = order is not None
    return {"cycle": found, "order": [list(f) for f in order] if found else None}, found


def _graph_unmixed(graph: Graph) -> Result:
    flag = is_td_unmixed(graph)
    try:
        structural = is_structurally_td_unmixed(graph)
    except InputError:  # not a balanced tree: the structural test does not apply
        structural = None
    return {"td_unmixed": flag, "structurally_td_unmixed": structural}, flag


def _graph_decompose(graph: Graph) -> Result:
    found = search_decomposition(graph)
    if found is None:
        return {"found": False, "t1": None, "t2": None}, False
    return {"found": True, "t1": found.t1.to_json_obj(), "t2": found.t2.to_json_obj()}, True


def _gvd_split(ideal: SquareFreeIdeal, var: str) -> Result:
    c_part, n_part = split(ideal, var)
    ok = is_valid_geometric_decomposition(ideal, var)
    return {"C": c_part.to_json_obj(), "N": n_part.to_json_obj(), "valid": ok}, ok


def _gvd_certify_tree(graph: Graph) -> Result:
    cert = certify_tree_gvd(graph)
    _require_tree_size(cert, "c_branch", "n_branch")
    ideal = odd_oni(graph)
    ok = validate_certificate(ideal, cert)
    return {"ideal": ideal.to_json_obj(), "certificate": certificate_to_json_obj(cert),
            "valid": ok}, ok


def _verify_paper() -> Result:
    report = verify.run_verification()
    return report, report["ok"]


# ---------------------------------------------------------------------------
# the verb table


class _Verb(NamedTuple):
    """One verb.  `path` is a top-level verb or a group and a verb
    (``"ideal sum"``); `kinds` are the keys of `_DECODERS` for the documents
    read from ``--in`` and then ``--with``; `compute` takes those documents
    and then the values of `options`, pairs of an argparse name or flag and
    its keyword arguments."""

    path: str
    kinds: tuple[str, ...]
    help: str
    compute: Callable[..., Result]
    options: tuple[tuple[str, dict], ...] = ()


_GROUPS = {
    "ideal": "square-free monomial ideal operations",
    "complex": "simplicial complex operations",
    "graph": "graph-side operations",
    "build": "constructions",
    "gvd": "geometric vertex decomposition",
}

_FAMILY, _IDEAL, _COMPLEX, _GRAPH = ("family",), ("ideal",), ("complex",), ("graph",)

_VERBS = (
    _Verb("dualize", _FAMILY, "minimal transversals of a Sperner family",
          lambda f: _encoded(minimal_transversals(f))),
    _Verb("ideal primes", _IDEAL, "minimal primes (as variable sets)",
          lambda i: _sets("minimal_primes", i.minimal_primes())),
    _Verb("ideal unmixed", _IDEAL, "do all minimal primes share one size",
          lambda i: _flag("unmixed", i.is_unmixed())),
    _Verb("ideal sr-complex", _IDEAL, "Stanley-Reisner complex",
          lambda i: _encoded(stanley_reisner_complex(i))),
    _Verb("ideal equal", _IDEAL * 2, "strict equality of two ideals",
          lambda i, j: _flag("equal", i == j)),
    _Verb("ideal sum", _IDEAL * 2, "sum over the union universe",
          lambda i, j: _combined(i, j, "sum")),
    _Verb("ideal intersect", _IDEAL * 2, "intersection over the union universe",
          lambda i, j: _combined(i, j, "intersect")),
    _Verb("complex vd", _COMPLEX, "vertex decomposability plus certificate",
          lambda c: _verdict("vertex_decomposable", is_vertex_decomposable(c),
                             shedding_certificate_to_json, "deletion", "link")),
    _Verb("complex sr-ideal", _COMPLEX, "Stanley-Reisner ideal",
          lambda c: _encoded(stanley_reisner_ideal(c))),
    _Verb("complex facet-ideal", _COMPLEX, "facet ideal",
          lambda c: _encoded(facet_ideal(c))),
    _Verb("complex covers", _COMPLEX, "minimal vertex covers",
          lambda c: _sets("minimal_vertex_covers", minimal_vertex_covers(c))),
    _Verb("complex tree", _COMPLEX, "simplicial forest/tree test", _complex_tree),
    _Verb("complex cycle", _COMPLEX, "simplicial cycle test and order", _complex_cycle),
    _Verb("complex join", _COMPLEX * 2, "join of two complexes on disjoint universes",
          lambda c, d: _encoded(join(c, d))),
    _Verb("graph oni", _GRAPH, "open neighborhood ideal", lambda g: _encoded(oni(g))),
    _Verb("graph odd-oni", _GRAPH, "odd open neighborhood ideal of a balanced forest",
          lambda g: _encoded(odd_oni(g))),
    _Verb("graph td-sets", _GRAPH, "minimal total dominating sets",
          lambda g: _sets("minimal_td_sets", minimal_td_sets(g))),
    _Verb("graph odd-td-sets", _GRAPH, "minimal odd total dominating sets",
          lambda g: _sets("minimal_odd_td_sets", minimal_odd_td_sets(g))),
    _Verb("graph heights", _GRAPH, "leaf-distance height profile",
          lambda g: _encoded(HeightProfile(g))),
    _Verb("graph unmixed", _GRAPH,
          "TD-unmixedness, plus the structural test on balanced trees", _graph_unmixed),
    _Verb("graph stable", _GRAPH, "stable complex", lambda g: _encoded(stable_complex(g))),
    _Verb("graph even-stable", _GRAPH, "even-stable complex",
          lambda g: _encoded(even_stable_complex(g))),
    _Verb("graph chordal", _GRAPH, "chordality via a perfect elimination ordering",
          lambda g: _flag("chordal", is_chordal(g))),
    _Verb("graph decompose", _GRAPH, "search for a two-piece tree decomposition",
          _graph_decompose),
    _Verb("graph split-vertex", _GRAPH,
          "canonical recursion vertex of a TD-unmixed balanced tree",
          lambda g: ({"split_vertex": find_split_vertex(g)}, None)),
    _Verb("build path", (), "path graph on n edges", lambda n: _encoded(path_graph(n)),
          (("--n", dict(type=int, required=True, metavar="N",
                        help="edge count; vertices are labeled 0..n")),)),
    _Verb("build o-seq", ("picks",),
          "apply a sequence of height-preserving extensions to the 7-vertex path",
          lambda picks: _encoded(o_sequence(picks))),
    _Verb("build realize", _FAMILY, "graph whose minimal TD-sets are the given Sperner family",
          lambda f: _encoded(realize_as_oni(f))),
    _Verb("build edge-join", _GRAPH * 2, "disjoint union of two graphs plus one bridge edge",
          lambda g, h, v1, v2: _encoded(edge_join(g, h, v1, v2)),
          (("--v1", dict(required=True, metavar="V",
                         help="bridge endpoint in the first graph")),
           ("--v2", dict(required=True, metavar="V",
                         help="bridge endpoint in the second graph")))),
    _Verb("gvd check", _IDEAL, "decide GVD and emit a certificate",
          lambda i: _verdict("gvd", is_gvd(i), certificate_to_json_obj, "c_branch", "n_branch")),
    _Verb("gvd split", _IDEAL, "one geometric splitting step", _gvd_split,
          (("--var", dict(required=True, metavar="Y", help="variable to split at")),)),
    _Verb("gvd certify-tree", _GRAPH,
          "structural certificate for a TD-unmixed balanced forest", _gvd_certify_tree),
    _Verb("gvd validate", ("certified",), "replay a certificate against an ideal",
          lambda pair: _flag("valid", validate_certificate(*pair))),
    _Verb("fixture", (), "emit a named fixture document",
          lambda name: (fixture_document(name), None), (("name", dict(help="fixture name")),)),
    _Verb("verify-paper", (), "run every bundled golden check; exit 1 on any failure",
          _verify_paper),
)


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser(argv: Optional[list[str]] = None) -> argparse.ArgumentParser:
    """The parser for `argv`, or the whole menu when `argv` is None.

    When `argv` starts with one row's path (``["gvd", "check", ...]``), the
    menus hold that row alone: a top parser, its group's parser and the
    verb's.  Every other argv (no words, ``-h`` at the top or on a group, an
    unknown verb or op, an option before the verb) gets every row.  Paths
    are unique and no group shares a name with a top-level verb, so at most
    one row matches.  The output cannot differ from the whole menu's: the
    verb's subparser and its menus are built by the same loop either way,
    argparse hands every word after the verb to that subparser, and a
    subparser's prog, help and errors depend on its own row alone."""
    rows = _VERBS
    if argv is not None:
        rows = [verb for verb in _VERBS
                if argv[:verb.path.count(" ") + 1] == verb.path.split()] or _VERBS
    parser = _Parser(
        prog="oni-kit",
        description="Open-neighborhood-ideal toolkit: dualization, square-free "
        "ideals, simplicial complexes, balanced trees, and geometric vertex "
        "decomposition certificates.",
        allow_abbrev=False,
    )
    menus = {"": parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                       metavar="COMMAND")}
    for verb in rows:
        group, _, name = verb.path.rpartition(" ")
        if group not in menus:
            menus[group] = menus[""].add_parser(
                group, help=_GROUPS[group], allow_abbrev=False).add_subparsers(
                dest="subcommand", required=True, parser_class=_Parser, metavar="OP")
        sp = menus[group].add_parser(name, help=verb.help, allow_abbrev=False)
        if verb.kinds:
            sp.add_argument("--in", dest="input", metavar="PATH",
                            help="input document (default: stdin)")
        if "graph" in verb.kinds:
            sp.add_argument("--format", choices=("json", "text"), default="json",
                            help="graph input encoding")
        if len(verb.kinds) == 2:
            sp.add_argument("--with", dest="second", required=True, metavar="PATH",
                            help="second input document")
        sp.add_argument("--out", metavar="PATH", help="write the result here instead of stdout")
        sp.add_argument("--pretty", action="store_true", help="indent the output document")
        sp.add_argument("--assert", dest="check", action="store_true",
                        help="exit 1 when the command's boolean result is false")
        for name_or_flag, spec in verb.options:
            sp.add_argument(name_or_flag, **spec)
        sp.set_defaults(verb=verb)
    return parser


def _run(argv: Optional[list[str]]) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = vars(build_parser(argv).parse_args(argv))
    except SystemExit as exc:  # -h/--help printed its usage text and exits 0
        return exc.code
    verb = args["verb"]
    docs = [_read(kind, args.get(dest), args.get("format"))
            for kind, dest in zip(verb.kinds, ("input", "second"))]
    doc, flag = verb.compute(*docs, *(args[name.lstrip("-")] for name, _ in verb.options))
    if args["check"] and flag is None:
        raise InputError("this subcommand has no boolean result to assert")
    _emit(doc, args)
    # verify-paper asserts its own result: a failed golden check exits 1
    wanted = args["check"] or verb.path == "verify-paper"
    return 1 if (wanted and flag is False) else 0


def main(argv: Optional[list[str]] = None) -> int:
    try:
        return _run(argv)
    except InputError as exc:
        message = str(exc)
    except RecursionError:
        # valid input can still nest deeper than the interpreter's stack
        message = "input too deep to process"
    _write_stdout(json.dumps({"error": message}, separators=(",", ":")) + "\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())

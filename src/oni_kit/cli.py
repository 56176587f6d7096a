"""Command-line front end.

Each verb is declared once, as a row of `_VERBS`: its path, the kinds of
document it reads, its extra options, its help text and a computation that
returns ``(document, boolean result or None)``.  `build_parser`, the input
readers, ``--assert`` handling and dispatch are derived from the table: a
verb that reads one document takes ``--in`` (default stdin), a second one
``--with``, and a graph verb ``--format`` (``json`` or the plain edge-list
``text``).

Every verb writes exactly one JSON document, and exits 0 on success, 1 when
an asserted boolean came out false, 2 on malformed input or a violated
precondition.  The one other output is ``-h``/``--help``, which prints usage
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
from .errors import CapExceeded, InputError
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
    minimal_transversals,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse would print usage and exit; route through the JSON error path
        raise InputError(f"bad arguments: {message}")


# ---------------------------------------------------------------------------
# input / output plumbing


def _read_source(path: Optional[str]) -> str:
    stdin = path is None or path == "-"
    try:
        if stdin:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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


def _emit(doc, args: dict) -> None:
    if args["pretty"]:
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = json.dumps(doc, separators=(",", ":")) + "\n"
    out = args["out"]
    if out is None or out == "-":
        sys.stdout.write(text)
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


def _verdict(key: str, decided: tuple, encode: Callable) -> Result:
    ok, cert = decided
    return {key: ok, "certificate": None if cert is None else encode(cert)}, ok


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
                             shedding_certificate_to_json)),
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
          lambda i: _verdict("gvd", is_gvd(i), certificate_to_json_obj)),
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oni-kit",
        description="Open-neighborhood-ideal toolkit: dualization, square-free "
        "ideals, simplicial complexes, balanced trees, and geometric vertex "
        "decomposition certificates.",
        allow_abbrev=False,
    )
    menus = {"": parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                       metavar="COMMAND")}
    for verb in _VERBS:
        group, _, name = verb.path.rpartition(" ")
        if group not in menus:
            menus[group] = menus[""].add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="subcommand", required=True, parser_class=_Parser, metavar="OP")
        sp = menus[group].add_parser(name, help=verb.help)
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
    try:
        args = vars(build_parser().parse_args(argv))
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
    except (InputError, CapExceeded) as exc:
        message = str(exc)
    except RecursionError:
        # valid input can still nest deeper than the interpreter's stack
        message = "input too deep to process"
    sys.stdout.write(json.dumps({"error": message}, separators=(",", ":")) + "\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())

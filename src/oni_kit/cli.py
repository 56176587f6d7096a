"""Command-line front end.

Every subcommand reads JSON documents (graphs also accept the plain edge-list
format via ``--format text``), writes exactly one JSON document, and exits 0
on success, 1 when an asserted boolean came out false, 2 on malformed input or
a violated precondition.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

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


def _json_doc(path: Optional[str]):
    return _parse_json(_read_source(path))


def _graph_in(args: argparse.Namespace, attr: str = "input") -> Graph:
    raw = _read_source(getattr(args, attr))
    if getattr(args, "format", "json") == "text":
        return Graph.from_text(raw)
    return Graph.from_json_obj(_parse_json(raw))


def _ideal_in(args: argparse.Namespace, attr: str = "input") -> SquareFreeIdeal:
    return SquareFreeIdeal.from_json_obj(_json_doc(getattr(args, attr)))


def _family_in(args: argparse.Namespace, attr: str = "input") -> SpernerFamily:
    return SpernerFamily.from_json_obj(_json_doc(getattr(args, attr)))


def _complex_in(args: argparse.Namespace, attr: str = "input") -> SimplicialComplex:
    return SimplicialComplex.from_json_obj(_json_doc(getattr(args, attr)))


def _emit(doc, args: argparse.Namespace) -> None:
    if getattr(args, "pretty", False):
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = json.dumps(doc, separators=(",", ":")) + "\n"
    out = getattr(args, "out", None)
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out!r}: {exc}") from exc


def _set_list(family: SpernerFamily) -> list[list[str]]:
    return [list(member) for member in family.members]


# ---------------------------------------------------------------------------
# handlers: each returns (document, boolean result or None)

Result = tuple[dict, Optional[bool]]


def _cmd_dualize(args) -> Result:
    return minimal_transversals(_family_in(args)).to_json_obj(), None


def _cmd_ideal_primes(args) -> Result:
    primes = _ideal_in(args).minimal_primes()
    return {"minimal_primes": _set_list(primes)}, None


def _cmd_ideal_unmixed(args) -> Result:
    flag = _ideal_in(args).is_unmixed()
    return {"unmixed": flag}, flag


def _cmd_ideal_sr_complex(args) -> Result:
    return stanley_reisner_complex(_ideal_in(args)).to_json_obj(), None


def _cmd_ideal_equal(args) -> Result:
    flag = _ideal_in(args) == _ideal_in(args, "second")
    return {"equal": flag}, flag


def _combined(
    left: SquareFreeIdeal, right: SquareFreeIdeal
) -> tuple[SquareFreeIdeal, SquareFreeIdeal]:
    """Rebase both operands onto the union universe so piped documents
    with different variable sets still combine."""
    if left.universe == right.universe:
        return left, right
    merged = Universe(set(left.universe.labels) | set(right.universe.labels))
    return left.extended_to(merged), right.extended_to(merged)


def _cmd_ideal_sum(args) -> Result:
    left, right = _combined(_ideal_in(args), _ideal_in(args, "second"))
    return left.sum(right).to_json_obj(), None


def _cmd_ideal_intersect(args) -> Result:
    left, right = _combined(_ideal_in(args), _ideal_in(args, "second"))
    return left.intersect(right).to_json_obj(), None


def _cmd_complex_vd(args) -> Result:
    ok, cert = is_vertex_decomposable(_complex_in(args))
    doc = {
        "vertex_decomposable": ok,
        "certificate": None if cert is None else shedding_certificate_to_json(cert),
    }
    return doc, ok


def _cmd_complex_sr_ideal(args) -> Result:
    return stanley_reisner_ideal(_complex_in(args)).to_json_obj(), None


def _cmd_complex_facet_ideal(args) -> Result:
    return facet_ideal(_complex_in(args)).to_json_obj(), None


def _cmd_complex_covers(args) -> Result:
    covers = minimal_vertex_covers(_complex_in(args))
    return {"minimal_vertex_covers": _set_list(covers)}, None


def _cmd_complex_tree(args) -> Result:
    cx = _complex_in(args)
    forest = is_simplicial_forest(cx)
    tree = forest and is_connected_complex(cx)
    return {"simplicial_forest": forest, "simplicial_tree": tree}, tree


def _cmd_complex_cycle(args) -> Result:
    order = cycle_order(_complex_in(args))
    doc = {
        "cycle": order is not None,
        "order": None if order is None else [list(facet) for facet in order],
    }
    return doc, order is not None


def _cmd_complex_join(args) -> Result:
    return join(_complex_in(args), _complex_in(args, "second")).to_json_obj(), None


def _cmd_graph_oni(args) -> Result:
    return oni(_graph_in(args)).to_json_obj(), None


def _cmd_graph_odd_oni(args) -> Result:
    return odd_oni(_graph_in(args)).to_json_obj(), None


def _cmd_graph_td_sets(args) -> Result:
    return {"minimal_td_sets": _set_list(minimal_td_sets(_graph_in(args)))}, None


def _cmd_graph_odd_td_sets(args) -> Result:
    sets = minimal_odd_td_sets(_graph_in(args))
    return {"minimal_odd_td_sets": _set_list(sets)}, None


def _cmd_graph_heights(args) -> Result:
    return HeightProfile(_graph_in(args)).to_json_obj(), None


def _cmd_graph_unmixed(args) -> Result:
    graph = _graph_in(args)
    flag = is_td_unmixed(graph)
    try:
        structural = is_structurally_td_unmixed(graph)
    except InputError:  # not a balanced tree: the structural test does not apply
        structural = None
    return {"td_unmixed": flag, "structurally_td_unmixed": structural}, flag


def _cmd_graph_stable(args) -> Result:
    return stable_complex(_graph_in(args)).to_json_obj(), None


def _cmd_graph_even_stable(args) -> Result:
    return even_stable_complex(_graph_in(args)).to_json_obj(), None


def _cmd_graph_chordal(args) -> Result:
    flag = is_chordal(_graph_in(args))
    return {"chordal": flag}, flag


def _cmd_graph_decompose(args) -> Result:
    found = search_decomposition(_graph_in(args))
    if found is None:
        return {"found": False, "t1": None, "t2": None}, False
    doc = {
        "found": True,
        "t1": found.t1.to_json_obj(),
        "t2": found.t2.to_json_obj(),
    }
    return doc, True


def _cmd_graph_split_vertex(args) -> Result:
    return {"split_vertex": find_split_vertex(_graph_in(args))}, None


def _cmd_build_path(args) -> Result:
    return path_graph(args.n).to_json_obj(), None


def _cmd_build_o_seq(args) -> Result:
    doc = _json_doc(args.input)
    if isinstance(doc, dict):
        if set(doc) != {"picks"}:
            raise InputError('o-seq input must be a list or {"picks": [...]}')
        doc = doc["picks"]
    if not isinstance(doc, list) or not all(isinstance(v, str) for v in doc):
        raise InputError("picks must be a list of vertex labels")
    return o_sequence(doc).to_json_obj(), None


def _cmd_build_realize(args) -> Result:
    return realize_as_oni(_family_in(args)).to_json_obj(), None


def _cmd_build_edge_join(args) -> Result:
    joined = edge_join(_graph_in(args), _graph_in(args, "second"), args.v1, args.v2)
    return joined.to_json_obj(), None


def _cmd_gvd_check(args) -> Result:
    ok, cert = is_gvd(_ideal_in(args))
    doc = {
        "gvd": ok,
        "certificate": None if cert is None else certificate_to_json_obj(cert),
    }
    return doc, ok


def _cmd_gvd_split(args) -> Result:
    ideal = _ideal_in(args)
    c_part, n_part = split(ideal, args.var)
    ok = is_valid_geometric_decomposition(ideal, args.var)
    return {"C": c_part.to_json_obj(), "N": n_part.to_json_obj(), "valid": ok}, ok


def _cmd_gvd_certify_tree(args) -> Result:
    graph = _graph_in(args)
    cert = certify_tree_gvd(graph)
    ideal = odd_oni(graph)
    ok = validate_certificate(ideal, cert)
    doc = {
        "ideal": ideal.to_json_obj(),
        "certificate": certificate_to_json_obj(cert),
        "valid": ok,
    }
    return doc, ok


def _cmd_gvd_validate(args) -> Result:
    doc = _json_doc(args.input)
    if not isinstance(doc, dict) or set(doc) != {"ideal", "certificate"}:
        raise InputError('expected a document {"ideal": ..., "certificate": ...}')
    ideal = SquareFreeIdeal.from_json_obj(doc["ideal"])
    cert = certificate_from_json_obj(doc["certificate"])
    ok = validate_certificate(ideal, cert)
    return {"valid": ok}, ok


def _cmd_fixture(args) -> Result:
    return fixture_document(args.name), None


def _cmd_verify_paper(args) -> Result:
    report = verify.run_verification()
    return report, report["ok"]


# ---------------------------------------------------------------------------
# parser


def _output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", metavar="PATH", help="write the result here instead of stdout")
    sp.add_argument("--pretty", action="store_true", help="indent the output document")
    sp.add_argument(
        "--assert",
        dest="check",
        action="store_true",
        help="exit 1 when the command's boolean result is false",
    )


def _input_flag(sp: argparse.ArgumentParser, fmt: bool = False) -> None:
    sp.add_argument("--in", dest="input", metavar="PATH", help="input document (default: stdin)")
    if fmt:
        sp.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="graph input encoding",
        )


def _second_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--with", dest="second", required=True, metavar="PATH",
                    help="second input document")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oni-kit",
        description="Open-neighborhood-ideal toolkit: dualization, square-free "
        "ideals, simplicial complexes, balanced trees, and geometric vertex "
        "decomposition certificates.",
        allow_abbrev=False,
    )
    top = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar="COMMAND")

    def leaf(menu, name: str, handler, help_text: str, *,
             inp: bool = True, second: bool = False, fmt: bool = False):
        sp = menu.add_parser(name, help=help_text)
        if inp:
            _input_flag(sp, fmt)
        if second:
            _second_flag(sp)
        _output_flags(sp)
        sp.set_defaults(handler=handler)
        return sp

    def group(name: str, help_text: str):
        sp = top.add_parser(name, help=help_text)
        return sp.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_Parser, metavar="OP")

    leaf(top, "dualize", _cmd_dualize, "minimal transversals of a Sperner family")

    ideal = group("ideal", "square-free monomial ideal operations")
    leaf(ideal, "primes", _cmd_ideal_primes, "minimal primes (as variable sets)")
    leaf(ideal, "unmixed", _cmd_ideal_unmixed, "do all minimal primes share one size")
    leaf(ideal, "sr-complex", _cmd_ideal_sr_complex, "Stanley-Reisner complex")
    leaf(ideal, "equal", _cmd_ideal_equal, "strict equality of two ideals", second=True)
    leaf(ideal, "sum", _cmd_ideal_sum, "sum over the union universe", second=True)
    leaf(ideal, "intersect", _cmd_ideal_intersect,
         "intersection over the union universe", second=True)

    cx = group("complex", "simplicial complex operations")
    leaf(cx, "vd", _cmd_complex_vd, "vertex decomposability plus certificate")
    leaf(cx, "sr-ideal", _cmd_complex_sr_ideal, "Stanley-Reisner ideal")
    leaf(cx, "facet-ideal", _cmd_complex_facet_ideal, "facet ideal")
    leaf(cx, "covers", _cmd_complex_covers, "minimal vertex covers")
    leaf(cx, "tree", _cmd_complex_tree, "simplicial forest/tree test")
    leaf(cx, "cycle", _cmd_complex_cycle, "simplicial cycle test and order")
    leaf(cx, "join", _cmd_complex_join, "join of two complexes on disjoint universes",
         second=True)

    graph = group("graph", "graph-side operations")
    leaf(graph, "oni", _cmd_graph_oni, "open neighborhood ideal", fmt=True)
    leaf(graph, "odd-oni", _cmd_graph_odd_oni,
         "odd open neighborhood ideal of a balanced forest", fmt=True)
    leaf(graph, "td-sets", _cmd_graph_td_sets, "minimal total dominating sets", fmt=True)
    leaf(graph, "odd-td-sets", _cmd_graph_odd_td_sets,
         "minimal odd total dominating sets", fmt=True)
    leaf(graph, "heights", _cmd_graph_heights, "leaf-distance height profile", fmt=True)
    leaf(graph, "unmixed", _cmd_graph_unmixed,
         "TD-unmixedness, plus the structural test on balanced trees", fmt=True)
    leaf(graph, "stable", _cmd_graph_stable, "stable complex", fmt=True)
    leaf(graph, "even-stable", _cmd_graph_even_stable, "even-stable complex", fmt=True)
    leaf(graph, "chordal", _cmd_graph_chordal, "chordality via a perfect elimination "
         "ordering", fmt=True)
    leaf(graph, "decompose", _cmd_graph_decompose,
         "search for a two-piece tree decomposition", fmt=True)
    leaf(graph, "split-vertex", _cmd_graph_split_vertex,
         "canonical recursion vertex of a TD-unmixed balanced tree", fmt=True)

    build = group("build", "constructions")
    path_sp = leaf(build, "path", _cmd_build_path, "path graph on n edges", inp=False)
    path_sp.add_argument("--n", type=int, required=True, metavar="N",
                         help="edge count; vertices are labeled 0..n")
    leaf(build, "o-seq", _cmd_build_o_seq,
         "apply a sequence of height-preserving extensions to the 7-vertex path")
    leaf(build, "realize", _cmd_build_realize,
         "graph whose minimal TD-sets are the given Sperner family")
    ej_sp = leaf(build, "edge-join", _cmd_build_edge_join,
                 "disjoint union of two graphs plus one bridge edge",
                 second=True, fmt=True)
    ej_sp.add_argument("--v1", required=True, metavar="V", help="bridge endpoint in the first graph")
    ej_sp.add_argument("--v2", required=True, metavar="V", help="bridge endpoint in the second graph")

    gvd = group("gvd", "geometric vertex decomposition")
    leaf(gvd, "check", _cmd_gvd_check, "decide GVD and emit a certificate")
    split_sp = leaf(gvd, "split", _cmd_gvd_split, "one geometric splitting step")
    split_sp.add_argument("--var", required=True, metavar="Y", help="variable to split at")
    leaf(gvd, "certify-tree", _cmd_gvd_certify_tree,
         "structural certificate for a TD-unmixed balanced forest", fmt=True)
    leaf(gvd, "validate", _cmd_gvd_validate, "replay a certificate against an ideal")

    fixture_sp = leaf(top, "fixture", _cmd_fixture, "emit a named fixture document",
                      inp=False)
    fixture_sp.add_argument("name", help="fixture name")

    vp = leaf(top, "verify-paper", _cmd_verify_paper,
              "run every bundled golden check; exit 1 on any failure", inp=False)
    vp.set_defaults(hard=True)

    return parser


def _run(argv: Optional[list[str]]) -> int:
    args = build_parser().parse_args(argv)
    doc, flag = args.handler(args)
    if getattr(args, "check", False) and flag is None:
        raise InputError("this subcommand has no boolean result to assert")
    _emit(doc, args)
    wanted = getattr(args, "check", False) or getattr(args, "hard", False)
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

"""The four workloads: each builds a seeded corpus of items, and each item
pairs the timed call into the library with a check of its output that
runs outside the timed region.

- dualize: double dualization; almost all time in `universe`.
- decide: GVD and VD search (`gvd`, `complexes`, `ideals.is_unmixed`).
- replay: certificate build, JSON round trip and replay (`gvd`, `ideals`).
- cli: `python -m oni_kit.cli` on the README pipelines, one process at a
  time (process start, import and JSON in `cli`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

from perfbench import corpus

MODULES = ("universe", "ideals", "complexes", "graphs", "gvd", "verify", "fixtures")

# Corpus sizes and output bands.  Item cost grows steeply with output size
# (for trees, the odd TD-set count that corpus.odd_td_count predicts), so
# trees and random families are drawn inside narrow bands, many rather
# than few: a handful of large items would make a pass's time and its
# latency percentiles depend on the seed more than on the code.
DUALIZE_ELEMENTS = (16, 24)
DUALIZE_FAMILY_BANDS = ((20, 59, 40), (60, 149, 40), (150, 400, 20))  # output range, count
DUALIZE_TREES = dict(count=20, steps=(9, 13), vertices=(35, 45), outputs=(350, 450))
DECIDE_TREES = dict(count=40, steps=(5, 11), vertices=(20, 45), outputs=(40, 160))
DECIDE_COMPLEX_ROUNDS = 8  # passes over every (vertices, facet size, facet count)
DECIDE_VERDICT_TRIES = 40  # samples per complex to meet the round's VD verdict
DECIDE_NON_VD_EVERY = 2
REPLAY_TREES = dict(count=64, steps=(7, 12), vertices=(26, 45), outputs=(70, 100))
BRUTE_FORCE_SUPPORT = 14


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Corpus:
    items: list[Item]
    descriptor: list = field(default_factory=list)

    def parts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for it in self.items:
            counts[it.kind] = counts.get(it.kind, 0) + 1
        return counts

    def digest(self) -> str:
        return corpus.digest(self.descriptor)


def load_library(with_cli: bool) -> SimpleNamespace:
    """Import oni_kit afresh (every earlier copy is dropped from
    sys.modules first, so each set-up pays the import) and return its
    modules by short name."""
    for name in [n for n in sys.modules if n == "oni_kit" or n.startswith("oni_kit.")]:
        del sys.modules[name]
    importlib.import_module("oni_kit.cli" if with_cli else "oni_kit")
    names = MODULES + (("cli",) if with_cli else ())
    return SimpleNamespace(**{m: sys.modules[f"oni_kit.{m}"] for m in names})


def _shuffled(rng: random.Random, items: list[Item], descriptor: list) -> Corpus:
    order = list(range(len(items)))
    rng.shuffle(order)
    return Corpus([items[i] for i in order], [descriptor[i] for i in order])


# ---------------------------------------------------------------------------
# dualize


def _support(family) -> int:
    mask = 0
    for m in family.masks:
        mask |= m
    return mask


def _double_dual_item(L, kind: str, family) -> Item:
    def run():
        tau = L.universe.minimal_transversals(family)
        return tau, L.universe.minimal_transversals(tau)

    def check(out) -> bool:
        tau, back = out
        if back != family:
            return False
        if _support(family).bit_count() <= BRUTE_FORCE_SUPPORT:
            return tau == L.universe.brute_force_transversals(family)
        return True

    return Item(kind, run, check)


def _td_sets_item(L, tree, generators) -> Item:
    """The first dualization goes through graphs.minimal_odd_td_sets.  The
    TD-set count is also checked against corpus.odd_td_count, which does
    not dualize, so a kernel fault that stays self-consistent still shows."""

    def run():
        tds = L.graphs.minimal_odd_td_sets(tree)
        return tds, L.universe.minimal_transversals(tds)

    def check(out) -> bool:
        tds, back = out
        return (back == generators and len(tds) == corpus.odd_td_count(tree)
                and L.universe.minimal_transversals(generators) == tds)

    return Item("td_sets", run, check)


def build_dualize(L, seed: int) -> Corpus:
    rng = random.Random(seed)
    U = L.universe
    items, desc = [], []
    five = U.Universe("abcde")
    for masks in corpus.antichain_sweep(5):
        items.append(_double_dual_item(L, "sweep", U.SpernerFamily(five, masks)))
        desc.append(["sweep", list(masks)])
    labels = [f"x{j:02d}" for j in range(DUALIZE_ELEMENTS[1])]
    wanted = [count for _, _, count in DUALIZE_FAMILY_BANDS]
    while any(wanted):
        n = rng.randint(*DUALIZE_ELEMENTS)
        masks = U.minimal_masks(corpus.random_masks(rng, n, rng.randint(6, 12), 2, 4))
        family = U.SpernerFamily(U.Universe(labels[:n]), masks)
        size = len(U.minimal_transversals(family))
        for band, (lo, hi, _) in enumerate(DUALIZE_FAMILY_BANDS):
            if lo <= size <= hi and wanted[band]:
                wanted[band] -= 1
                items.append(_double_dual_item(L, "random", family))
                desc.append(["random", n, list(family.masks)])
    for tree in corpus.grown_trees(L, rng, **DUALIZE_TREES):
        items.append(_td_sets_item(L, tree, L.graphs.odd_oni(tree).generators))
        desc.append(["td_sets", [list(e) for e in tree.edges]])
    return _shuffled(rng, items, desc)


# ---------------------------------------------------------------------------
# decide


def validate_shared(L, ideal, cert) -> bool:
    """validate_certificate, memoized on (certificate node, ideal) for one
    call.  is_gvd hands the same sub-certificate to every subproblem its
    memo shares, so its certificates are DAGs whose expansion into a tree
    can be thousands of times larger; the memo replays each shared node
    once.  validate_certificate is pure, so the verdict is unchanged."""
    original = L.gvd.validate_certificate
    memo: dict = {}

    def memoized(ideal, cert):
        key = (id(cert), ideal.universe.labels, ideal.generators.masks)
        if key not in memo:
            memo[key] = original(ideal, cert)
        return memo[key]

    L.gvd.validate_certificate = memoized
    try:
        return memoized(ideal, cert)
    finally:
        L.gvd.validate_certificate = original


def _decide_check(L, inputs, expect):
    """GVD verdict equals VD verdict (and `expect` when known); every
    returned certificate replays against the (ideal, complex) that
    `inputs()` rebuilds."""

    def check(out) -> bool:
        ok_g, cert, ok_v, shed = out
        ideal, cx = inputs()
        if ok_g != ok_v or (expect is not None and ok_g != expect):
            return False
        if ok_g and not validate_shared(L, ideal, cert):
            return False
        return not ok_v or L.complexes.validate_shedding_certificate(cx, shed)

    return check


def _tree_decide_item(L, tree) -> Item:
    def run():
        ok_g, cert = L.gvd.is_gvd(L.graphs.odd_oni(tree))
        ok_v, shed = L.complexes.is_vertex_decomposable(L.graphs.even_stable_complex(tree))
        return ok_g, cert, ok_v, shed

    def inputs():
        return L.graphs.odd_oni(tree), L.graphs.even_stable_complex(tree)

    # o-extension keeps a tree TD-unmixed, and such trees are GVD and VD
    return Item("tree", run, _decide_check(L, inputs, True))


def _complex_decide_item(L, kind: str, cx, expect) -> Item:
    def run():
        ok_g, cert = L.gvd.is_gvd(L.complexes.stanley_reisner_ideal(cx))
        ok_v, shed = L.complexes.is_vertex_decomposable(cx)
        return ok_g, cert, ok_v, shed

    def inputs():
        return L.complexes.stanley_reisner_ideal(cx), cx

    return Item(kind, run, _decide_check(L, inputs, expect))


def seven_cycle_complex(L):
    """Independence complex of the 7-cycle: well-covered, so pure, but
    neither VD nor (its Stanley-Reisner ideal, the edge ideal) GVD."""
    labels = [str(i) for i in range(7)]
    ideal = L.ideals.SquareFreeIdeal.from_supports(
        L.universe.Universe(labels), ([str(i), str((i + 1) % 7)] for i in range(7))
    )
    return L.complexes.stanley_reisner_complex(ideal)


def build_decide(L, seed: int) -> Corpus:
    rng = random.Random(seed)
    items, desc = [], []
    for tree in corpus.grown_trees(L, rng, **DECIDE_TREES):
        items.append(_tree_decide_item(L, tree))
        desc.append(["tree", [list(e) for e in tree.edges]])
    # Every (vertex count, facet size, facet count) equally often; the last
    # of every DECIDE_NON_VD_EVERY rounds asks for a complex that is not VD
    # and the others for one that is, where the class has both.  Non-VD
    # inputs cost about ten times more to decide (the search is exhausted),
    # so fixing their share keeps the latency distribution from depending
    # on the seed, and keeps its median inside the cheaper, VD group.
    for r in range(DECIDE_COMPLEX_ROUNDS):
        for n in (6, 7):
            labels = tuple("abcdefg"[:n])
            universe = L.universe.Universe(labels)
            for k in range(1, n):
                faces = list(itertools.combinations(labels, k))
                for m in range(1, min(8, len(faces)) + 1):
                    for _ in range(DECIDE_VERDICT_TRIES):
                        cx = L.complexes.SimplicialComplex.from_facets(universe, rng.sample(faces, m))
                        if L.complexes.is_vertex_decomposable(cx)[0] != (r % DECIDE_NON_VD_EVERY == DECIDE_NON_VD_EVERY - 1):
                            break
                    items.append(_complex_decide_item(L, "complex", cx, None))
                    desc.append(["complex", n, list(cx.facets.masks)])
    items.append(_complex_decide_item(L, "c7_negative", seven_cycle_complex(L), False))
    desc.append(["c7_negative"])
    return _shuffled(rng, items, desc)


# ---------------------------------------------------------------------------
# replay


def certificate_json_roundtrip(L, cert):
    """Encode a GVD certificate to JSON text and decode it back."""
    text = json.dumps(L.gvd.certificate_to_json_obj(cert), separators=(",", ":"))
    return L.gvd.certificate_from_json_obj(json.loads(text))


def corrupt(L, cert):
    """The certificate with its root split variable replaced by a split
    variable used inside the C branch (else the N branch).  That variable
    is not in the universe of the root's branches, so replay must reject
    the copy."""
    for branch in (cert.c_branch, cert.n_branch):
        stack = [branch]
        while stack:
            node = stack.pop()
            if isinstance(node, L.gvd.Split):
                if node.variable != cert.variable:
                    return dataclasses.replace(cert, variable=node.variable)
                stack.extend((node.n_branch, node.c_branch))
    raise ValueError("certificate too small to corrupt")


def _replay_item(L, tree, cx, shed) -> Item:
    def run():
        cert = L.gvd.certify_tree_gvd(tree)
        ideal = L.graphs.odd_oni(tree)
        decoded = certificate_json_roundtrip(L, cert)
        valid = L.gvd.validate_certificate(ideal, decoded)
        return cert, decoded, valid, L.complexes.validate_shedding_certificate(cx, shed)

    def check(out) -> bool:
        cert, decoded, valid, shed_valid = out
        if not (valid and shed_valid and decoded == cert):
            return False
        return not L.gvd.validate_certificate(L.graphs.odd_oni(tree), corrupt(L, cert))

    return Item("tree", run, check)


def build_replay(L, seed: int) -> Corpus:
    rng = random.Random(seed)
    items, desc = [], []
    for tree in corpus.grown_trees(L, rng, **REPLAY_TREES):
        cx = L.graphs.even_stable_complex(tree)
        _, shed = L.complexes.is_vertex_decomposable(cx)  # a missing one fails the item
        items.append(_replay_item(L, tree, cx, shed))
        desc.append(["tree", [list(e) for e in tree.edges]])
    return Corpus(items, desc)


# ---------------------------------------------------------------------------
# cli


def run_in_process(L, argv: list[str], stdin: bytes) -> tuple[int, bytes]:
    """cli.main on argv with the given stdin; returns (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin.decode())
    try:
        with contextlib.redirect_stdout(out):
            code = L.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue().encode()


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _validate_input(certified: bytes) -> bytes:
    doc = json.loads(certified)
    return (json.dumps({"ideal": doc["ideal"], "certificate": doc["certificate"]}) + "\n").encode()


def cli_pipelines(picks: list[str]) -> list[list[tuple[list[str], object]]]:
    """The README pipelines.  Each step is (argv, stdin), where stdin is
    bytes, None for the previous step's stdout, or a function of it."""
    return [
        [(["fixture", "p6"], b""), (["graph", "td-sets"], None)],
        [(["fixture", "beg_a"], b""), (["dualize"], None)],
        [(["fixture", "beg_a"], b""), (["build", "realize"], None),
         (["graph", "chordal", "--assert"], None)],
        [(["build", "o-seq"], json.dumps(picks).encode()), (["graph", "odd-oni"], None),
         (["gvd", "check"], None)],
        [(["fixture", "t_a"], b""), (["gvd", "certify-tree"], None),
         (["gvd", "validate"], _validate_input)],
        [(["verify-paper"], b"")],
    ]


@dataclass
class Invocation:
    argv: list[str]
    stdin: bytes
    code: int
    stdout: bytes


@dataclass
class CliCorpus(Corpus):
    invocations: list[Invocation] = field(default_factory=list)


def _cli_item(inv: Invocation, command: list[str], cwd: str, env: dict) -> Item:
    def run():
        proc = subprocess.run(command + inv.argv, input=inv.stdin, capture_output=True,
                              cwd=cwd, env=env, timeout=60, check=False)
        return proc.returncode, proc.stdout

    def check(out) -> bool:
        code, stdout = out
        lines = stdout.split(b"\n")
        if code != 0 or inv.code != 0 or len(lines) != 2 or lines[1] != b"":
            return False
        json.loads(lines[0])
        return stdout == inv.stdout

    return Item(inv.argv[0], run, check)


def build_cli(L, seed: int, src: str, cwd: str) -> CliCorpus:
    """Expected outputs come from cli.main run in-process; each item then
    runs one invocation as a child process and must match them byte for
    byte."""
    rng = random.Random(seed)
    _, picks = corpus.grow_tree(L, rng, rng.randint(1, 3))
    pipelines = cli_pipelines(picks)
    rng.shuffle(pipelines)
    invocations = []
    for pipeline in pipelines:
        previous = b""
        for argv, stdin in pipeline:
            if stdin is None:
                stdin = previous
            elif callable(stdin):
                stdin = stdin(previous)
            code, stdout = run_in_process(L, argv, stdin)
            invocations.append(Invocation(argv, stdin, code, stdout))
            previous = stdout
    command = [sys.executable, "-m", "oni_kit.cli"]
    env = cli_env(src)
    items = [_cli_item(inv, command, cwd, env) for inv in invocations]
    desc = [[inv.argv, inv.stdin.decode()] for inv in invocations]
    return CliCorpus(items, desc, invocations)


def in_process_items(L, invocations: list[Invocation]) -> list[Item]:
    """The same invocations through cli.main in this process."""
    return [
        Item(inv.argv[0], lambda inv=inv: run_in_process(L, inv.argv, inv.stdin),
             lambda out, inv=inv: out == (inv.code, inv.stdout))
        for inv in invocations
    ]


BUILD_CORPUS = {"dualize": build_dualize, "decide": build_decide, "replay": build_replay}

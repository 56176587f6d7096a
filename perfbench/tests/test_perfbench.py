"""Tests of the benchmark itself: seeded corpora, span arithmetic, wrapper
removal, and output checks that catch a faulty kernel.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run

run._prepare_imports()

from perfbench import corpus, spans, speed, workloads  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corpus_digest_follows_the_seed(workload):
    first = run.set_up(workload, 3)[1].digest()
    assert run.set_up(workload, 3)[1].digest() == first
    assert run.set_up(workload, 4)[1].digest() != first


def test_self_time_on_a_synthetic_span_tree():
    t = spans.Tracer()
    a = t.record("A", 0, 100)
    b = t.record("B", 10, 40, parent=a)
    t.record("C", 15, 25, parent=b)
    a2 = t.record("A", 50, 90, parent=a)  # A recursing into itself
    t.record("C", 60, 70, parent=a2)
    t.record("C", 200, 205)
    stats, c_under_a = spans.aggregate(t, inside=("C", "A"))
    assert (stats["A"].calls, stats["A"].total_ns, stats["A"].self_ns) == (2, 100, 60)
    assert (stats["B"].calls, stats["B"].total_ns, stats["B"].self_ns) == (1, 30, 20)
    assert (stats["C"].calls, stats["C"].total_ns, stats["C"].self_ns) == (3, 25, 25)
    assert sum(s.self_ns for s in stats.values()) == 100 + 5
    assert c_under_a == 2


def test_wrappers_cover_every_importer_and_are_removed():
    L, built = run.set_up("decide", 2)
    original = L.universe.minimal_transversals
    importers = [m for m in (L.universe, L.ideals, L.complexes, L.graphs, L.verify)
                 if getattr(m, "minimal_transversals", None) is original]
    assert len(importers) >= 4
    tracer = spans.Tracer()
    saved = spans.install(tracer, run.trace_targets(), ("oni_kit", "perfbench.workloads"))
    try:
        assert all(m.minimal_transversals is not original for m in importers)
        assert "_perfbench_span" in vars(L.ideals.SquareFreeIdeal)["from_supports"].__func__.__dict__
    finally:
        spans.restore(saved)
    assert all(m.minimal_transversals is original for m in importers)

    items = built.items[:25]
    traced = run.traced_run("decide", 2, L, workloads.Corpus(items, built.descriptor[:25]))
    assert traced["restored"] and traced["leftover_wrappers"] == []
    assert spans.leftover_wrappers(("oni_kit", "perfbench.workloads")) == []
    assert traced["checker"].failed == 0
    assert traced["values"]["gvd.is_gvd.calls"] == len(items)
    assert traced["values"]["ideals.is_unmixed.calls"] > 0


def test_faulty_minimal_transversals_is_caught(monkeypatch):
    L, built = run.set_up("dualize", 5)
    items = [it for it in built.items if it.kind != "sweep"][:12]
    items += [it for it in built.items if it.kind == "sweep"][:60]
    assert {it.kind for it in items} == {"sweep", "random", "td_sets"}

    def failed_ratio():
        checker = run.Checker(items)
        run.checked_pass(items, checker, speed.LOCAL, speed.LOCAL.calibrate())
        return checker.failed / checker.attempted

    assert failed_ratio() == 0
    original = L.universe.minimal_transversals

    def drops_last_set(family):
        out = original(family)
        return L.universe.SpernerFamily(out.universe, out.masks[:-1])

    for module in vars(L).values():
        if getattr(module, "minimal_transversals", None) is original:
            monkeypatch.setattr(module, "minimal_transversals", drops_last_set)
    assert failed_ratio() > 0.5


def test_odd_td_count_matches_dualization():
    L = workloads.load_library(with_cli=False)
    rng = random.Random(9)
    for steps in list(range(9)) * 3:
        tree, _ = corpus.grow_tree(L, rng, steps)
        assert corpus.odd_td_count(tree) == len(L.graphs.minimal_odd_td_sets(tree))


def test_corrupted_certificate_is_rejected():
    L = workloads.load_library(with_cli=False)
    tree, _ = corpus.grow_tree(L, random.Random(4), 6)
    cert = L.gvd.certify_tree_gvd(tree)
    ideal = L.graphs.odd_oni(tree)
    assert L.gvd.validate_certificate(ideal, cert)
    assert not L.gvd.validate_certificate(ideal, workloads.corrupt(L, cert))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_every_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert {m["name"] for m in doc["end_to_end"]} == set(run.END_TO_END)
    assert Path(run.ROOT / doc["command"][1]).resolve() == Path(run.__file__).resolve()

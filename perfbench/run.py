"""Run one benchmark workload against the oni-kit sources in this checkout.

    python3 perfbench/run.py --workload dualize --seed 1 --trace 0
    python3 perfbench/run.py            # every workload in turn, seed 1

The untraced run (--trace 0) sets up three times (import, seeded corpus,
precomputed inputs) and reports the median set-up time, then loops whole
passes over the corpus for at least --seconds of timed work and at least
100 items, checking every output outside the timed region.  It reports
the end-to-end metrics.  --seconds defaults to BENCHMARK.json's
run_seconds, so that one value sets how long a run measures.

The traced run (--trace 1) times one untraced pass, then one pass with
every layer's public functions wrapped from outside the library, restores
them, and reports the per-layer metrics and the tracing overhead.

Times are in reference seconds (see perfbench/speed.py): each is scaled by
a calibration run around it, because the speed of a shared machine drifts
by up to ~2x.  Wall-clock values are printed beside them and kept in the
record; the interpreter probes of the traced cli run stay wall-clock.

A readable report goes to stdout, a run record and (traced) a spans file
to perfbench/out/, and the last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only if every output checked correct.  Run without
--workload, the last line instead sums the four workloads' lines, with
each metric named `<workload>.<metric>`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("dualize", "decide", "replay", "cli")
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
SETUPS = 3
MIN_ITEMS = 100
WALL_CAP_S = 110.0  # start no pass after this, so a run ends well within 180 s
TRACE_PREFIXES = ("oni_kit", "perfbench.workloads")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare_imports() -> None:
    if not (SRC / "oni_kit" / "__init__.py").is_file():
        _fail(f"no oni_kit sources under {SRC}; run from a full checkout")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# timing and checking


class Checker:
    """Checks outputs outside the timed region.  The first output of each
    item gets the item's full check; a later one that equals an accepted
    output is accepted without repeating it."""

    def __init__(self, items):
        self.items = items
        self.accepted = [None] * len(items)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, outputs) -> None:
        for i, out in enumerate(outputs):
            self.attempted += 1
            if not self._ok(i, out):
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{self.items[i].kind}#{i}: {out!r}"[:300])

    def _ok(self, i: int, out) -> bool:
        if isinstance(out, Exception):
            return False
        if self.accepted[i] is not None and out == self.accepted[i]:
            return True
        try:
            ok = bool(self.items[i].check(out))
        except Exception:  # a check that cannot read the output fails it
            return False
        if ok:
            self.accepted[i] = out
        return ok


def checked_pass(items, checker: Checker, clock, before: float, call=None):
    """One calibrated pass over the items, its outputs then checked."""
    from perfbench.speed import ScaledPass

    done = ScaledPass(clock, before)
    done.run(items, call) if call else done.run(items)
    checker.check(done.outputs)
    return done


def measure(items, seconds: float, clock) -> dict:
    """Whole passes until `seconds` of timed work, MIN_ITEMS items and two
    passes are done (or the wall-clock cap is near)."""
    raw = [[] for _ in items]
    scaled = [[] for _ in items]
    checker = Checker(items)
    passes = []
    last = clock.calibrate()
    wall0 = time.perf_counter()
    while True:
        done = checked_pass(items, checker, clock, last)
        last = done.last
        for i, (r, s) in enumerate(zip(done.raw, done.scaled)):
            raw[i].append(r)
            scaled[i].append(s)
        passes.append((sum(done.raw) / 1e9, sum(done.scaled) / 1e9))
        timed = sum(p[0] for p in passes)
        if (timed >= seconds and checker.attempted >= MIN_ITEMS and len(passes) >= 2) or \
                time.perf_counter() - wall0 + passes[-1][0] > WALL_CAP_S:
            break
    return {"raw": raw, "scaled": scaled, "passes": passes, "checker": checker}


def percentile_summary(latencies) -> dict:
    samples = sorted(ns for per_item in latencies for ns in per_item)
    p90 = statistics.quantiles(samples, n=10)[8]
    return {
        "samples": len(samples),
        "p50_ms": statistics.median(samples) / 1e6,
        "p90_ms": p90 / 1e6,
        "beyond_p90": sum(1 for ns in samples if ns > p90),
    }


def items_per_second(latencies) -> float:
    """Corpus size over the sum of each item's median time across passes,
    so one slow pass or one stall does not move it."""
    return len(latencies) / (sum(statistics.median(per) for per in latencies) / 1e9)


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: str, seed: int):
    from perfbench import workloads

    L = workloads.load_library(with_cli=workload == "cli")
    if workload == "cli":
        built = workloads.build_cli(L, seed, str(SRC), str(ROOT))
    else:
        built = workloads.BUILD_CORPUS[workload](L, seed)
    return L, built


def set_up_repeatedly(workload: str, seed: int):
    """SETUPS full set-ups; returns the last, the raw and scaled seconds of
    each, and whether every set-up built the same corpus."""
    from perfbench.speed import LOCAL

    raw, scaled, digests = [], [], []
    before = LOCAL.calibrate()
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        L, built = set_up(workload, seed)
        raw.append(time.perf_counter() - t0)
        after = LOCAL.calibrate()
        scaled.append(raw[-1] * LOCAL.factor(before, after))
        before = after
        digests.append(built.digest())
    import oni_kit

    if not Path(oni_kit.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"imported oni_kit from {oni_kit.__file__}, not from {SRC}")
    return L, built, raw, scaled, len(set(digests)) == 1


# ---------------------------------------------------------------------------
# traced run


def _split_nodes(result) -> int:
    """Distinct Split nodes in is_gvd's certificate (a DAG: memoized
    subproblems share one sub-certificate)."""
    seen: set[int] = set()
    stack = [result[1]] if result[1] is not None else []
    while stack:
        node = stack.pop()
        if hasattr(node, "c_branch") and id(node) not in seen:
            seen.add(id(node))
            stack.extend((node.c_branch, node.n_branch))
    return len(seen)


def _cert_nodes(cert) -> int:
    """Nodes of a certificate read as a tree, as its JSON and its replay
    see it."""
    count, stack = 0, [cert]
    while stack:
        node = stack.pop()
        count += 1
        if hasattr(node, "c_branch"):
            stack.extend((node.c_branch, node.n_branch))
    return count


def trace_targets():
    from perfbench.spans import Target

    U, I, C, G, V = ("oni_kit.universe", "oni_kit.ideals", "oni_kit.complexes",
                     "oni_kit.graphs", "oni_kit.gvd")
    return [
        Target(U, "minimal_transversals", "universe.minimal_transversals", len),
        Target(U, "minimal_masks", "universe.minimal_masks"),
        Target(U, "__init__", "universe.SpernerFamily", cls="SpernerFamily"),
        Target(I, "is_unmixed", "ideals.is_unmixed", cls="SquareFreeIdeal"),
        Target(I, "from_supports", "ideals.from_supports", cls="SquareFreeIdeal"),
        Target(I, "intersect", "ideals.intersect", cls="SquareFreeIdeal"),
        Target(V, "split", "gvd.split"),
        Target(V, "is_valid_geometric_decomposition", "gvd.is_valid_geometric_decomposition",
               lambda ok: int(not ok)),
        Target(V, "is_gvd", "gvd.is_gvd", _split_nodes),
        Target(V, "validate_certificate", "gvd.validate_certificate"),
        Target(V, "certify_tree_gvd", "gvd.certify_tree_gvd", _cert_nodes),
        Target("perfbench.workloads", "certificate_json_roundtrip", "gvd.certificate_json"),
        Target(C, "is_vertex_decomposable", "complexes.is_vertex_decomposable"),
        Target(C, "validate_shedding_certificate", "complexes.validate_shedding_certificate"),
        Target(C, "stanley_reisner_ideal", "complexes.stanley_reisner_ideal"),
        Target(G, "minimal_odd_td_sets", "graphs.minimal_odd_td_sets", len),
        Target(G, "odd_oni", "graphs.odd_oni"),
        Target(G, "even_stable_complex", "graphs.even_stable_complex"),
        Target(G, "heights", "graphs.heights"),
        Target(G, "find_split_vertex", "graphs.find_split_vertex"),
        Target("oni_kit.cli", "main", "cli.main"),
    ]


# Per-layer metric names and units, in report order.  `<span>.<stat>` names
# read the span statistics; the rest are computed in layer_metrics.
PER_LAYER = [
    ("universe.minimal_transversals.calls", "count"),
    ("universe.minimal_transversals.total_s", "s"),
    ("universe.minimal_transversals.self_s", "s"),
    ("universe.minimal_transversals.out_sets", "count"),
    ("universe.minimal_masks.calls", "count"),
    ("universe.minimal_masks.self_s", "s"),
    ("universe.SpernerFamily.calls", "count"),
    ("universe.SpernerFamily.self_s", "s"),
    ("ideals.is_unmixed.calls", "count"),
    ("ideals.is_unmixed.total_s", "s"),
    ("ideals.from_supports.calls", "count"),
    ("ideals.from_supports.self_s", "s"),
    ("ideals.intersect.calls", "count"),
    ("ideals.intersect.self_s", "s"),
    ("gvd.split.calls", "count"),
    ("gvd.split.self_s", "s"),
    ("gvd.is_valid_geometric_decomposition.calls", "count"),
    ("gvd.is_valid_geometric_decomposition.total_s", "s"),
    ("gvd.is_valid_geometric_decomposition.reject_ratio", "ratio"),
    ("gvd.is_gvd.calls", "count"),
    ("gvd.is_gvd.total_s", "s"),
    ("gvd.is_gvd.self_s", "s"),
    ("gvd.is_gvd.split_tries_per_node", "ratio"),
    ("gvd.validate_certificate.nodes", "count"),
    ("gvd.validate_certificate.total_s", "s"),
    ("gvd.validate_certificate.self_s", "s"),
    ("gvd.certify_tree_gvd.calls", "count"),
    ("gvd.certify_tree_gvd.total_s", "s"),
    ("gvd.certificate_json.total_s", "s"),
    ("gvd.certificate_nodes", "count"),
    ("complexes.is_vertex_decomposable.calls", "count"),
    ("complexes.is_vertex_decomposable.total_s", "s"),
    ("complexes.is_vertex_decomposable.self_s", "s"),
    ("complexes.validate_shedding_certificate.nodes", "count"),
    ("complexes.validate_shedding_certificate.total_s", "s"),
    ("complexes.stanley_reisner_ideal.total_s", "s"),
    ("graphs.minimal_odd_td_sets.calls", "count"),
    ("graphs.minimal_odd_td_sets.total_s", "s"),
    ("graphs.minimal_odd_td_sets.out_sets", "count"),
    ("graphs.odd_oni.total_s", "s"),
    ("graphs.even_stable_complex.total_s", "s"),
    ("graphs.heights.calls", "count"),
    ("graphs.heights.self_s", "s"),
    ("graphs.find_split_vertex.calls", "count"),
    ("graphs.find_split_vertex.self_s", "s"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main.total_s", "s"),
    ("cli.process_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def layer_metrics(stats, split_in_gvd: int, extra: dict) -> tuple[dict, dict]:
    """Per-layer values, and the base behind each ratio."""
    from perfbench.spans import Stat

    values, bases = {}, {}
    for name, _ in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        s = stats.get(span, Stat())
        if stat in ("calls", "nodes"):
            values[name] = s.calls
        elif stat == "total_s":
            values[name] = s.total_ns / 1e9
        elif stat == "self_s":
            values[name] = s.self_ns / 1e9
        elif stat == "out_sets":
            values[name] = s.value
    ivgd = stats.get("gvd.is_valid_geometric_decomposition", Stat())
    name = "gvd.is_valid_geometric_decomposition.reject_ratio"
    values[name] = ivgd.value / ivgd.calls if ivgd.calls else 0.0
    bases[name] = f"{ivgd.value} false results / {ivgd.calls} calls"
    nodes = stats.get("gvd.is_gvd", Stat()).value
    name = "gvd.is_gvd.split_tries_per_node"
    values[name] = split_in_gvd / nodes if nodes else 0.0
    bases[name] = f"{split_in_gvd} split calls inside is_gvd / {nodes} distinct Split nodes in its certificates"
    values["gvd.certificate_nodes"] = stats.get("gvd.certify_tree_gvd", Stat()).value
    values.update(extra)
    for name, _ in PER_LAYER:
        values.setdefault(name, 0)
    return values, bases


def _child_items(command: list[str], env: dict, repeats: int = 5):
    from perfbench.workloads import Item

    def run():
        return subprocess.run(command, capture_output=True, env=env, cwd=str(ROOT),
                              timeout=60, check=False).returncode

    return [Item("child", run, lambda code: code == 0)] * repeats


def traced_run(workload: str, seed: int, L, built) -> dict:
    """One untraced and one traced pass over the same items.  For cli the
    traced items are the invocations run in-process; one pass of child
    processes and the bare interpreter and import times come first."""
    from perfbench import spans, workloads
    from perfbench.speed import LOCAL, child_clock

    checker = Checker(built.items)
    extra, notes = {}, {}
    items = built.items
    if workload == "cli":
        env = workloads.cli_env(str(SRC))
        children_clock = child_clock(str(ROOT), env)
        children = checked_pass(built.items, checker, children_clock, children_clock.calibrate())
        items = workloads.in_process_items(L, built.invocations)
        inner = Checker(items)
        runs = [checked_pass(items, inner, LOCAL, LOCAL.calibrate()) for _ in range(3)]
        untraced = sorted(runs, key=lambda r: sum(r.scaled))[1]
        before = runs[-1].last
        child_ms, probe_failed = {}, 0
        for name, command in (("bare", [sys.executable, "-c", "pass"]),
                              ("import", [sys.executable, "-c", "import oni_kit.cli"])):
            probes = _child_items(command, env)
            probe = checked_pass(probes, probe_checker := Checker(probes), children_clock,
                                 children_clock.calibrate())
            probe_failed += probe_checker.failed
            child_ms[name] = statistics.median(probe.raw) / 1e6
        extra["cli.interpreter_ms"] = child_ms["bare"]
        extra["cli.import_ms"] = child_ms["import"] - child_ms["bare"]
        sub_s, in_s = sum(children.raw) / 1e9, sum(untraced.raw) / 1e9
        extra["cli.process_share"] = (sub_s - in_s) / sub_s
        notes["cli.process_share"] = (
            f"({sub_s:.4f} s in child processes - {in_s:.4f} s in-process) / {sub_s:.4f} s, "
            f"one pass of {len(items)} invocations")
    else:
        inner, probe_failed = checker, 0
        untraced = checked_pass(items, inner, LOCAL, LOCAL.calibrate())
        before = untraced.last

    tracer = spans.Tracer()

    def call(i, item):
        tracer.item_id = i
        return item.run()

    saved = spans.install(tracer, trace_targets(), TRACE_PREFIXES)
    try:
        traced = checked_pass(items, inner, LOCAL, before, call)
    finally:
        spans.restore(saved)
    leftovers = spans.leftover_wrappers(TRACE_PREFIXES)
    restored = not leftovers and all(vars(owner)[attr] is original for owner, attr, original in saved)
    traced_s, untraced_s = sum(traced.scaled) / 1e9, sum(untraced.scaled) / 1e9
    extra["trace.overhead_ratio"] = traced_s / untraced_s - 1
    notes["trace.overhead_ratio"] = f"{traced_s:.4f} s traced / {untraced_s:.4f} s untraced, same items, minus 1"
    stats, split_in_gvd = spans.aggregate(tracer, inside=("gvd.split", "gvd.is_gvd"),
                                          scale=traced.factors)
    values, bases = layer_metrics(stats, split_in_gvd, extra)
    bases.update(notes)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json.gz"
    tracer.write(spans_path)
    return {
        "values": values, "bases": bases, "checker": checker, "inner_failed": inner.failed + probe_failed,
        "restored": restored, "leftover_wrappers": leftovers, "spans": len(tracer),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------
# report


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
    }


def untraced_report(args, built, measured, setup_raw, setup_scaled):
    """End-to-end values, in reference seconds; wall-clock ones beside."""
    checker = measured["checker"]
    cli = args.workload == "cli"
    both = {}
    for clock, setups, latencies in (("reference", setup_scaled, measured["scaled"]),
                                     ("wall", setup_raw, measured["raw"])):
        pct = percentile_summary(latencies)
        both[clock] = {
            "setup_s": statistics.median(setups),
            "items_per_s": items_per_second(latencies),
            "item_p50_ms": pct["p50_ms"],
            "item_p90_ms": pct["p90_ms"],
            "peak_rss_mib": peak_rss_mib(children=cli),
        }
    values = both["reference"]
    notes = {
        "setup_s": f"median of {SETUPS} set-ups",
        "items_per_s": f"{len(built.items)} items a pass, median item time over "
                       f"{len(measured['passes'])} passes",
        "item_p50_ms": f"{pct['samples']} samples",
        "item_p90_ms": f"{pct['samples']} samples, {pct['beyond_p90']} beyond",
        "peak_rss_mib": "largest child process" if cli else "this process",
    }
    print(f"  {'metric':14s} {'reference':>12s} {'wall':>12s} unit")
    for name, unit in END_TO_END.items():
        print(f"  {name:14s} {values[name]:>12.6g} {both['wall'][name]:>12.6g} {unit:8s} [{notes[name]}]")
    ratio = checker.failed / checker.attempted
    print(f"  {'failed_ratio':14s} {ratio:>12.6g} {ratio:>12.6g} {'ratio':8s} "
          f"[{checker.failed} failed / {checker.attempted} attempted]")
    record = {"end_to_end": values, "wall": both["wall"],
              "failed_ratio": ratio, "percentile_samples": pct["samples"],
              "beyond_p90": pct["beyond_p90"], "setup_wall_s": setup_raw,
              "setup_reference_s": setup_scaled, "passes_wall_and_reference_s": measured["passes"]}
    return values, record


def run_all(args) -> int:
    """Every workload in turn, each in its own process (so that peak RSS
    is per workload), its output passed through; then one JSON line over
    all of them, correct only if every workload exited 0 and was correct."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        with subprocess.Popen(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True) as proc:
            last = ""
            for line in proc.stdout:
                print(line, end="", flush=True)
                last = line
        try:
            result = json.loads(last)
        except ValueError:
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        total["correct"] = total["correct"] and proc.returncode == 0 and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="the workload to run (default: each in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _prepare_imports()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload is None:
        return run_all(args)
    from perfbench import speed, workloads

    L, built, setup_raw, setup_scaled, same_digest = set_up_repeatedly(args.workload, args.seed)
    env = environment(args)
    record = {"environment": env, "corpus": {
        "digest": built.digest(), "items": len(built.items), "parts": built.parts(),
        "same_digest_every_setup": same_digest}}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} python={env['python']} "
          f"nproc={env['nproc']} commit={env['git_commit'][:12]}")
    print(f"corpus digest {built.digest()}: {len(built.items)} items {built.parts()}")

    if args.trace:
        traced = traced_run(args.workload, args.seed, L, built)
        checker = traced["checker"]
        units = dict(PER_LAYER)
        values = traced["values"]
        correct = (checker.failed == 0 and traced["inner_failed"] == 0 and traced["restored"]
                   and same_digest)
        record.update(per_layer=values, bases=traced["bases"], spans=traced["spans"],
                      spans_file=traced["spans_file"], wrappers_restored=traced["restored"],
                      leftover_wrappers=traced["leftover_wrappers"])
        for name, unit in PER_LAYER:
            note = traced["bases"].get(name)
            print(f"  {name:52s} {values[name]:>14.6g} {unit}" + (f"  [{note}]" if note else ""))
        print(f"  wrappers restored: {traced['restored']}; {traced['spans']} spans -> {traced['spans_file']}")
    else:
        clock = speed.LOCAL
        if args.workload == "cli":
            clock = speed.child_clock(str(ROOT), workloads.cli_env(str(SRC)))
        measured = measure(built.items, args.seconds, clock)
        checker = measured["checker"]
        units = END_TO_END
        values, part = untraced_report(args, built, measured, setup_raw, setup_scaled)
        record.update(part)
        correct = checker.failed == 0 and same_digest
    record.update(correct=correct, attempted=checker.attempted, failed=checker.failed,
                  errors=checker.errors)
    for err in checker.errors:
        print(f"  failed: {err}")
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record -> {record_path.relative_to(ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

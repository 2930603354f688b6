"""One benchmark run in a fresh process: set up, measure, check.

run.py starts this script; it is not meant to be called by hand:

    python3 pipeline_bench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR [--setup-only]

Set-up generates the workload's sources, writes them into DIR, imports
the program and, for measure-deep-trees, writes the stored trees with
`ecstmetrics parse`.  The measured loop then hands one file at a time to
`ecstmetrics.cli.main`, in whole rounds over the workload's files, until
S seconds of command time have passed and at least MIN_ROUNDS rounds
have run.  The outputs are checked afterwards, outside the timed
calls.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from gen import Source  # noqa: E402
from spans import LAYER_OF, Tracer  # noqa: E402

# Every workload has at least 112 files and every file is timed in at least
# MIN_ROUNDS rounds, so p90 has well over ten completed samples beyond it.
MIN_ROUNDS = 3
# No round starts after this many seconds of loop time, so that the whole
# command ends within its 180-second limit even on a slow machine.
LOOP_DEADLINE_S = 100.0
SETUP_REFERENCES = 5  # reference samples on each side of set-up


@dataclass
class Op:
    """One file handed to the command, once per round."""

    source: Source
    argv: list
    input_path: str
    tree_path: str  # tree XML to check: written by the command or in set-up
    metrics_path: str | None
    expect_fail: bool
    input_bytes: int = 0


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _write_inputs(sources: list[Source]) -> None:
    os.makedirs("in", exist_ok=True)
    for source in sources:
        with open(os.path.join("in", source.name), "wb") as handle:
            handle.write(source.raw().encode("utf-8"))


def _operations(workload: str, sources: list[Source], cli) -> list[Op]:
    controls = {s.name for s in workloads.control_sources()}
    ops = []
    for source in sources:
        src = os.path.join("in", source.name)
        tree = os.path.join("trees", source.name + ".ecst.xml")
        metrics = os.path.join("metrics", source.name + ".metrics.xml")
        if workload == workloads.RUN_MIXED:
            argv = ["run", src, "--tree-dir", "trees", "--metrics-dir", "metrics"]
            op = Op(source, argv, src, tree, metrics, source.name in controls)
        elif workload == workloads.PARSE_DENSE:
            op = Op(source, ["parse", src, "--out", tree], src, tree, None, False)
        else:
            # The stored tree is written once, in set-up, by the program.
            with contextlib.redirect_stdout(_Discard()):
                code = cli.main(["parse", src, "--out", tree])
            if code != 0:
                raise SystemExit(f"set-up: `parse {src}` exited {code}")
            argv = ["measure", tree, "--extended-cc", "--out", metrics]
            op = Op(source, argv, tree, tree, metrics, False)
        op.input_bytes = os.path.getsize(op.input_path)
        ops.append(op)
    return ops


@dataclass
class Loop:
    """What the measured loop saw, one entry per call."""

    ops: list = field(default_factory=list)
    walls: list = field(default_factory=list)  # wall seconds per call
    codes: list = field(default_factory=list)
    references: list = field(default_factory=list)  # before each call, and after the last
    first_span: list = field(default_factory=list)  # tracer span index at each call
    rounds: int = 0
    errors: str = ""

    def scaled(self) -> list[float]:
        """Seconds per call at nominal speed."""
        factors = speed.call_factors(self.references)
        return [wall * f for wall, f in zip(self.walls, factors)]


def _measure(ops: list[Op], seconds: float, entry, tracer: Tracer | None, clock) -> Loop:
    """Closed loop: whole rounds, one file at a time."""
    loop = Loop()
    busy = 0.0
    loop_started = time.perf_counter()
    errors = io.StringIO()
    with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(errors):
        while busy < seconds or loop.rounds < MIN_ROUNDS:
            if time.perf_counter() - loop_started > LOOP_DEADLINE_S:
                break
            for op in ops:
                loop.references.append(clock.reference_s())
                if tracer is not None:
                    tracer.file = op.source.name
                    loop.first_span.append(len(tracer.spans))
                began = time.perf_counter()
                try:
                    code = entry(op.argv)
                except Exception as e:  # a traceback is a fault; count it and go on
                    errors.write(f"{op.input_path}: {type(e).__name__}: {e}\n")
                    code = -1
                elapsed = time.perf_counter() - began
                busy += elapsed
                loop.ops.append(op)
                loop.walls.append(elapsed)
                loop.codes.append(code)
            loop.rounds += 1
    loop.references.append(clock.reference_s())
    loop.errors = errors.getvalue()
    return loop


def _round_trips(data: bytes) -> bool:
    from ecstmetrics.xmlio import parse_tree_xml, serialize_tree

    return serialize_tree(parse_tree_xml(data)).encode("utf-8") == data


def _check(ops: list[Op], loop: Loop, extended: bool):
    """Problems found, and what each checked tree holds."""
    problems: list[str] = []
    facts: dict[str, oracle.TreeFacts] = {}
    codes: dict[str, set] = {}
    for op, code in zip(loop.ops, loop.codes):
        codes.setdefault(op.source.name, set()).add(code)
    for op in ops:
        seen = codes[op.source.name]
        if seen != {0}:
            if not op.expect_fail or 0 in seen:
                problems.append(f"{op.input_path}: unexpected exit codes {sorted(seen)}")
            continue
        with open(op.tree_path, "rb") as handle:
            data = handle.read()
        facts[op.source.name] = tree = oracle.TreeFacts(data)
        problems += oracle.check_tree(op.source, tree)
        if not _round_trips(data):
            problems.append(f"{op.tree_path}: does not re-serialise byte for byte")
        if op.metrics_path is not None:
            with open(op.metrics_path, "rb") as handle:
                problems += oracle.check_metrics(op.source, handle.read(), extended)
    return problems, facts


def _output_bytes(ops: list[Op], workload: str) -> tuple[int, int]:
    """(tree bytes, metrics bytes) the command writes in one round."""
    trees = metrics = 0
    for op in ops:
        if workload != workloads.MEASURE_DEEP and os.path.exists(op.tree_path):
            trees += os.path.getsize(op.tree_path)
        if op.metrics_path is not None and os.path.exists(op.metrics_path):
            metrics += os.path.getsize(op.metrics_path)
    return trees, metrics


def _tenth_ratio(files, weight, spent):
    """Time per unit of weight on the top tenth of files over the bottom tenth.

    files is sorted by the property that should drive cost; returns
    (ratio, top per-unit microseconds, bottom per-unit microseconds), all
    0 when the layer did no work on these files.
    """
    files = [f for f in files if spent.get(f, 0.0) > 0.0]
    if len(files) < 2:
        return 0.0, 0.0, 0.0
    k = max(1, len(files) // 10)

    def per_unit(group):
        return sum(spent[f] for f in group) / sum(weight[f] for f in group) * 1e6

    top, bottom = per_unit(files[-k:]), per_unit(files[:k])
    return top / bottom, top, bottom


def _layer_metrics(tracer: Tracer, loop: Loop, facts, tree_bytes: int):
    """Per-layer metrics per round, from self times at nominal speed."""
    factors = speed.call_factors(loop.references)
    per_file: dict[str, dict[str, float]] = {}
    calls: dict[str, dict[str, int]] = {}
    totals = dict.fromkeys(LAYER_OF.values(), 0.0)
    wall = 0.0
    for index, (span, own) in enumerate(zip(tracer.spans, tracer.self_times())):
        scale = factors[bisect.bisect_right(loop.first_span, index) - 1]
        layer = LAYER_OF[span.name]
        totals[layer] += own * scale
        files = per_file.setdefault(layer, {})
        files[span.file] = files.get(span.file, 0.0) + own * scale
        counts = calls.setdefault(span.name, {})
        counts[span.file] = counts.get(span.file, 0) + 1
        if span.parent < 0:
            wall += (span.end - span.start) * scale
    texts = {op.source.name: op.source for op in loop.ops}
    scanned = sum(len(texts[name].text) * count for name, count in calls.get("scan", {}).items())
    parsed = [name for name in calls.get("parse_source", {}) if name in facts]
    measured = [name for name in calls.get("measure_tree", {}) if name in facts]
    tokens = {name: len(f.tokens) for name, f in facts.items()}
    nodes = {name: f.nodes for name, f in facts.items()}
    by_size = sorted(parsed, key=lambda n: (tokens[n], n))
    by_depth = sorted(measured, key=lambda n: (facts[n].max_depth, n))
    size = _tenth_ratio(by_size, tokens, per_file.get("frontends.self_s", {}))
    # reload as the caller sees it: parse_tree_xml with its validate_tree
    reload = {
        name: per_file.get("xmlio.parse_tree_xml_self_s", {}).get(name, 0.0)
        + per_file.get("tree.validate_s", {}).get(name, 0.0)
        for name in measured
    }
    xml_depth = _tenth_ratio(by_depth, nodes, reload)
    measure_depth = _tenth_ratio(by_depth, nodes, per_file.get("metrics.measure_s", {}))
    scan_busy = totals["scan.busy_s"]
    rounds = loop.rounds
    return {
        **{layer: (total / rounds, "s") for layer, total in totals.items()},
        "scan.mchar_per_s": (scanned / scan_busy / 1e6 if scan_busy else 0.0, "Mchar/s"),
        "lexer.tokens": (sum(tokens[n] for n in parsed), "count"),
        "frontends.nodes": (sum(nodes[n] for n in parsed), "count"),
        "frontends.comments": (sum(facts[n].comments for n in parsed), "count"),
        "frontends.max_depth": (max((facts[n].max_depth for n in parsed), default=0), "count"),
        "frontends.size_scaling": (size[0], "x"),
        "frontends.size_scaling.large_us_per_token": (size[1], "us/token"),
        "frontends.size_scaling.small_us_per_token": (size[2], "us/token"),
        "xmlio.tree_kb": (tree_bytes / 1000, "kB"),
        "xmlio.depth_scaling": (xml_depth[0], "x"),
        "xmlio.depth_scaling.deep_us_per_node": (xml_depth[1], "us/node"),
        "xmlio.depth_scaling.shallow_us_per_node": (xml_depth[2], "us/node"),
        "metrics.rows": (sum(len(texts[n].constructs) for n in measured), "count"),
        "metrics.depth_scaling": (measure_depth[0], "x"),
        "metrics.depth_scaling.deep_us_per_node": (measure_depth[1], "us/node"),
        "metrics.depth_scaling.shallow_us_per_node": (measure_depth[2], "us/node"),
        "trace.wall_s": (wall / rounds, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WHY)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    clock = speed.Calibrator()
    references = [clock.reference_s() for _ in range(SETUP_REFERENCES)]
    started = time.perf_counter()
    sources = workloads.corpus(args.workload, args.seed)
    os.makedirs(args.workdir)
    os.chdir(args.workdir)
    os.makedirs("trees")
    os.makedirs("metrics")
    _write_inputs(sources)
    sys.path.insert(0, str(SRC))
    import ecstmetrics.cli as cli
    from ecstmetrics.scan import KERNEL

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's {SRC}")
    ops = _operations(args.workload, sources, cli)
    setup_wall = time.perf_counter() - started
    references += [clock.reference_s() for _ in range(SETUP_REFERENCES)]
    setup_s = setup_wall * speed.factor(references)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # The benchmark's own objects stay alive through the loop; keep them out
    # of the collector's scans, as a one-file command has no such objects.
    gc.collect()
    gc.freeze()
    tracer = None
    entry = cli.main
    if args.trace:
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("main", cli.main)
    loop = _measure(ops, args.seconds, entry, tracer, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        tracer.write(HERE.parent / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")

    extended = args.workload == workloads.MEASURE_DEEP
    problems, facts = _check(ops, loop, extended)
    tree_bytes, metrics_bytes = _output_bytes(ops, args.workload)
    scaled = loop.scaled()
    busy = sum(scaled)
    samples = [t for t, code in zip(scaled, loop.codes) if code == 0]
    if len(samples) < 2:
        problems.append(f"only {len(samples)} files completed")
        samples = [0.0, 0.0]
    print(
        f"# python {platform.python_version()} kernel {KERNEL} workload {args.workload}"
        f" seed {args.seed} files {len(ops)} rounds {loop.rounds} samples {len(samples)}"
        f" command_s {sum(loop.walls):.2f} wall, {busy:.2f} at nominal speed"
    )
    walls = [t for t, code in zip(loop.walls, loop.codes) if code == 0] or [0.0, 0.0]
    print(
        f"# wall time, not scaled: input_kb_per_s {sum(op.input_bytes for op in loop.ops) / sum(loop.walls) / 1000:.1f}"
        f" file_ms_p50 {statistics.median(walls) * 1000:.2f}"
        f" file_ms_p90 {statistics.quantiles(walls, n=10)[8] * 1000:.2f} setup_s {setup_wall:.3f}"
    )
    for line in loop.errors.splitlines()[:4]:
        print(f"# command error: {line}")
    for problem in problems[:20]:
        print(f"# check failed: {problem}")
    if tracer is not None:
        metrics = _layer_metrics(tracer, loop, facts, tree_bytes)
    else:
        handed = sum(op.input_bytes for op in loop.ops)
        metrics = {
            "input_kb_per_s": (handed / busy / 1000, "kB/s"),
            "file_ms_p50": (statistics.median(samples) * 1000, "ms"),
            "file_ms_p90": (statistics.quantiles(samples, n=10)[8] * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "output_kb": ((tree_bytes + metrics_bytes) / 1000, "kB"),
        }
    result = {
        "setup_s": setup_s,
        "correct": not problems,
        "attempted": len(loop.codes),
        "failed": sum(1 for code in loop.codes if code != 0),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

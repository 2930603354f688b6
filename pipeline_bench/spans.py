"""In-memory spans around the program's public functions.

Each wrapper is installed at the name its caller looks the function up
by (a module attribute), so no code of the program changes.  A span
records its name, start, end, parent span and the input file being
processed.  Spans stay in memory; the caller writes them out when the
run ends.  A span's self time is its duration minus the time its child
spans cover; calls here are synchronous, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import asdict, dataclass

# (module, attribute, span name): the attribute is the one the caller reads.
TARGETS = (
    ("ecstmetrics.scan", "scan", "scan"),  # lexer.lex calls _scan.scan
    ("ecstmetrics.frontends", "lex", "lex"),  # parse_source calls lex
    ("ecstmetrics.frontends", "parse_source", "parse_source"),  # parse_file calls it
    ("ecstmetrics.cli", "serialize_tree", "serialize_tree"),
    ("ecstmetrics.cli", "serialize_metrics", "serialize_metrics"),
    ("ecstmetrics.cli", "parse_tree_xml", "parse_tree_xml"),  # run's reload
    ("ecstmetrics.xmlio", "parse_tree_xml", "parse_tree_xml"),  # load_tree_file calls it
    ("ecstmetrics.xmlio", "validate_tree", "validate_tree"),
    ("ecstmetrics.cli", "measure_tree", "measure_tree"),
)

# Span name -> the per-layer metric its self time adds to.  "main" is the
# command itself: argument parsing, registry, file reads and writes.
LAYER_OF = {
    "main": "cli.self_s",
    "scan": "scan.busy_s",
    "lex": "lexer.self_s",
    "parse_source": "frontends.self_s",
    "serialize_tree": "xmlio.serialize_tree_s",
    "serialize_metrics": "xmlio.serialize_metrics_s",
    "parse_tree_xml": "xmlio.parse_tree_xml_self_s",
    "validate_tree": "tree.validate_s",
    "measure_tree": "metrics.measure_s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for none
    file: str


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.file = ""  # input file the next spans belong to
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = Span(name, 0.0, 0.0, parent, self.file)
            self.spans.append(span)
            self._open.append(index)
            span.start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()

        return traced

    def install(self) -> None:
        for module_name, attribute, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._undo.append((module, attribute, original))
            setattr(module, attribute, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attribute, original = self._undo.pop()
            setattr(module, attribute, original)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")

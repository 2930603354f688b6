"""Cyclomatic complexity and the LOC family over eCSTs.

Everything here keys on universal node kinds and token types only;
no language-specific lexeme ever influences a metric value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import MalformedTreeError
from .tree import (
    BRANCH,
    BRANCHING,
    CONDITION,
    FUNCTION,
    LOOP,
    SPELLING,
    EcstTree,
    Token,
    UniversalKind,
)

MEASURED_KINDS = (FUNCTION, LOOP, BRANCHING, BRANCH)

# Binary logical operators recognized by the extended-CC mode.
LOGICAL_OPERATORS = frozenset({"AND", "OR", "&", "&&", "||"})


class LocBundle(NamedTuple):
    """A file's totals, in the order of the metrics XML's <totals>."""

    loc: int
    sloc: int
    cloc: int


class ElementMetrics(NamedTuple):
    """One report row, in the order of a metrics XML <element>'s
    attributes; _fold builds it positionally, as a keyword call costs
    nearly twice as much."""

    name: str
    annotation: str
    cc: int
    loc: int
    sloc: int
    cloc: int
    start_line: int
    end_line: int


@dataclass
class MetricsReport:
    source_path: str
    language_id: str
    elements: list[ElementMetrics]
    totals: LocBundle


# Each kind that its direct child tokens name, and its name until one
# does (a unit with no identifier is "<anonymous>"); a BRANCH_STATEMENT,
# which none names, is BRANCHING.
_UNNAMED = {FUNCTION: None, LOOP: "LOOP", BRANCH: "BRANCH"}
# The fields of a reported node's mark that are set after its entry.
_FIRST_CODE, _FIRST_COMMENT, _NAME, _DECIDED = range(8, 12)


def _named(mark: list, token_type: str, label: str) -> bool:
    """Name an element by a direct child token, in mark[_NAME]; True once
    no later child can change the name.  A unit takes its last identifier
    before its first "(", ":" or ";", else its first identifier; loops and
    branches take their first keyword (DO-WHILE, and ELSIF for else-if).
    """
    kind = mark[0]
    if kind is FUNCTION:
        if token_type == "identifier":
            mark[_NAME] = label
        return token_type == "punctuation" and label in ("(", ":", ";")
    if token_type != "keyword":
        return False
    head = label.upper()
    if kind is LOOP:
        mark[_NAME] = "DO-WHILE" if head == "DO" else head
        return True
    # BRANCH: an else-if pair reads as ELSIF
    if mark[_NAME] == "ELSE":
        if head == "IF":
            mark[_NAME] = "ELSIF"
        return True
    mark[_NAME] = head
    return head != "ELSE"


def _fold(events: Iterable[Token | UniversalKind | None], extended: bool) -> list[ElementMetrics]:
    """The whole-file row of the first node of events, then the row of
    every measured node inside it, in preorder.

    events are a valid tree's, or of their shape.  Each value is
    a running count noted at a node's entry and read at its exit, and
    its lines run from its first token's start line to the last line
    counted at its exit.  cc counts
    the loops and the branches with a CONDITION, plus 1 for a unit.
    """
    rows: list = []
    sloc = sloc_last = cloc = cloc_last = 0  # distinct lines so far, the last one
    decisions = 0  # decision points so far: a loop at entry, a branch at exit
    operators = 0  # logical operators so far that have a CONDITION ancestor
    conditions = 0  # open CONDITION nodes
    # Of what follows its entry, a reported node's mark keeps only the
    # start lines of the first code and comment token, its name, and
    # whether a CONDITION child makes it a decision.  Marks of the nodes
    # entered since the last code token, the last comment token and, for
    # units, the last identifier:
    code_waiting, comment_waiting, unnamed = [], [], []
    naming = None  # the innermost open node's mark while its tokens may name it
    # Per open universal node: its kind, its mark (None unless reported)
    # and naming at its entry.
    marks: list[tuple] = []
    for node in events:
        if type(node) is tuple:
            label, token_type, line, _, end, _ = node
            # A token may start on the line the previous one ended on.
            if token_type == "comment":
                if comment_waiting:
                    for mark in comment_waiting:
                        mark[_FIRST_COMMENT] = line
                    comment_waiting.clear()
                cloc += end - (cloc_last if cloc_last >= line else line - 1)
                cloc_last = end
                continue
            if code_waiting:
                for mark in code_waiting:
                    mark[_FIRST_CODE] = line
                code_waiting.clear()
            sloc += end - (sloc_last if sloc_last >= line else line - 1)
            sloc_last = end
            if token_type == "identifier":
                if unnamed:
                    for mark in unnamed:
                        mark[_NAME] = label
                    unnamed.clear()
            elif conditions and token_type == "operator":
                operators += label in LOGICAL_OPERATORS
            if naming is not None and _named(naming, token_type, label):
                naming = None
        elif node is None:
            kind, mark, naming = marks.pop()
            conditions -= kind is CONDITION
            if mark is None:
                continue
            (_, row, decisions_in, operators_in, sloc_in, sloc_last_in, cloc_in,
             cloc_last_in, first_code, first_comment, name, decided) = mark
            decisions += decided
            if not (first_code or first_comment):
                raise MalformedTreeError(
                    f"universal node {SPELLING[kind]!r} has no concrete descendants"
                )
            cc = decisions - decisions_in + (kind is FUNCTION)
            if extended:
                cc += operators - operators_in
            start_line = min(first_code or first_comment, first_comment or first_code)
            end_line = max(sloc_last, cloc_last)
            # A node's first token may start on the line last counted before it.
            rows[row] = ElementMetrics(
                "<anonymous>" if name is None else name,
                SPELLING[kind],
                cc,
                end_line - start_line + 1,
                sloc - sloc_in + (0 < first_code == sloc_last_in),
                cloc - cloc_in + (0 < first_comment == cloc_last_in),
                start_line,
                end_line,
            )
        else:
            kind = node
            if kind is CONDITION:
                conditions += 1
                if marks and marks[-1][0] is BRANCH:
                    marks[-1][1][_DECIDED] = True  # counted at the BRANCH's exit
            if kind in MEASURED_KINDS or not marks:
                mark = [kind, len(rows), decisions, operators, sloc, sloc_last,
                        cloc, cloc_last, 0, 0, _UNNAMED.get(kind, "BRANCHING"), False]
                rows.append(None)
                code_waiting.append(mark)
                comment_waiting.append(mark)
                if kind is FUNCTION:
                    unnamed.append(mark)
            else:
                mark = None
            marks.append((kind, mark, naming))
            naming = mark if kind in _UNNAMED else None
            decisions += kind is LOOP
    return rows


def measure_tree(tree: EcstTree, extended: bool = False) -> MetricsReport:
    """Per-element metrics in preorder plus file-level totals."""
    rows = _fold(tree.events, extended)
    return _report(tree.source_path, tree.language_id, tree.total_lines, rows)


def _report(source_path, language_id, total_lines: int, rows: list) -> MetricsReport:
    """The report of _fold's rows for a file of total_lines lines."""
    whole, *elements = rows
    totals = LocBundle(total_lines, whole.sloc, whole.cloc)
    return MetricsReport(source_path, language_id, elements, totals)


def render_table(report: MetricsReport) -> str:
    """Human-readable table mirroring the report rows."""
    headers = ("ELEMENT", "ANNOTATION", "CC", "LOC", "SLOC", "CLOC", "LINES")
    rows = [
        (
            row.name,
            row.annotation,
            str(row.cc),
            str(row.loc),
            str(row.sloc),
            str(row.cloc),
            f"{row.start_line}-{row.end_line}",
        )
        for row in report.elements
    ]
    totals = report.totals
    rows.append(
        ("<file>", "-", "-", str(totals.loc), str(totals.sloc), str(totals.cloc), "-")
    )
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
    ]
    for r in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"

"""Output checks made apart from the program.

The line oracle walks the raw source text with its own small scanner,
treating only "\\n" as a line break after normalising "\\r\\n" and "\\r".
The XML readers use the standard library's ElementTree, not the
program's reader.  Expected values come from the generator's records
(gen.py) and the line oracle; each check returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

import bisect
import re
import xml.etree.ElementTree as ET

from gen import ANNOTATIONS, JAVA, MODULA2, Source

_JAVA_PIECE = re.compile(
    r"""//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'|[ \t\n]+|[^ \t\n/"']+|.""",
    re.S,
)
_MODULA2_PIECE = re.compile(r"""\(\*|"[^"\n]*"|'[^'\n]*'|[ \t\n]+|[^ \t\n("']+|.""", re.S)
_MODULA2_DELIM = re.compile(r"\(\*|\*\)")
_SPACE = re.compile(r"\s+")
MAX_PROBLEMS = 5


def normalise(raw: str) -> str:
    return raw.replace("\r\n", "\n").replace("\r", "\n")


def _comment_end(text: str, start: int) -> int:
    """End of the nested Modula-2 comment opened at start."""
    depth = 0
    for m in _MODULA2_DELIM.finditer(text, start):
        depth += 1 if m.group() == "(*" else -1
        if depth == 0:
            return m.end()
    raise ValueError(f"unterminated comment at offset {start}")


class LineOracle:
    """Code and comment lines of one source text, and LOC/SLOC/CLOC."""

    def __init__(self, raw: str, language: str):
        text = normalise(raw)
        self.line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
        lines = text.count("\n") + (1 if text and not text.endswith("\n") else 0)
        self.loc = max(1, lines)
        code = bytearray(len(self.line_starts) + 1)
        comment = bytearray(len(self.line_starts) + 1)
        self.comment_starts: list[int] = []
        self.comment_lines: list[tuple[int, int]] = []  # (first, last) line
        piece = _JAVA_PIECE if language == JAVA else _MODULA2_PIECE
        pos, line, n = 0, 1, len(text)
        while pos < n:
            m = piece.match(text, pos)
            token = m.group()
            end = m.end()
            if token == "(*" and language == MODULA2:
                end = _comment_end(text, pos)
                token = text[pos:end]
            if token[:2] in ("//", "/*", "(*"):
                last = line + token.count("\n")
                self.comment_starts.append(pos)
                self.comment_lines.append((line, last))
                for covered in range(line, last + 1):
                    comment[covered] = 1
                line = last
            elif token.isspace():
                line += token.count("\n")
            else:
                code[line] = 1
            pos = end
        self.code = code
        self.comment = comment
        self.code_prefix = _prefix(code)
        self.comment_prefix = _prefix(comment)

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset)

    def totals(self) -> tuple[int, int, int]:
        return self.loc, sum(self.code), sum(self.comment)

    def element(self, start: int, end: int) -> tuple[int, int, int, int, int]:
        """(loc, sloc, cloc, first line, last line) of the tokens in [start, end).

        The range starts and ends with a code token, so its first and last
        lines are code lines and every line between lies wholly inside it.
        """
        first, last = self.line_of(start), self.line_of(end - 1)
        lo = bisect.bisect_left(self.comment_starts, start)
        hi = bisect.bisect_left(self.comment_starts, end)
        if first == last:
            return 1, 1, int(hi > lo), first, last
        sloc = 2 + self.code_prefix[last - 1] - self.code_prefix[first]
        cloc = self.comment_prefix[last - 1] - self.comment_prefix[first]
        if hi > lo:
            cloc += self.comment_lines[lo][0] == first
            cloc += self.comment_lines[hi - 1][1] == last
        return last - first + 1, sloc, cloc, first, last


def _prefix(flags: bytearray) -> list[int]:
    out = [0] * len(flags)
    total = 0
    for i, flag in enumerate(flags):
        total += flag
        out[i] = total
    return out


# -- expectations --------------------------------------------------------------


def expected_rows(source: Source, lines: LineOracle, extended: bool) -> list[tuple]:
    """(annotation, cc, loc, sloc, cloc, startLine, endLine) per construct."""
    rows = []
    for c in source.constructs:
        loc, sloc, cloc, first, last = lines.element(c.start, c.end)
        rows.append((c.annotation, c.cc(extended), loc, sloc, cloc, first, last))
    return rows


def construct_counts(source: Source) -> dict[str, int]:
    counts = dict.fromkeys(ANNOTATIONS, 0)
    for c in source.constructs:
        counts[c.annotation] += 1
    return counts


# -- metrics XML ---------------------------------------------------------------


def read_metrics(data: bytes) -> tuple[list[tuple], tuple[int, int, int]]:
    root = ET.fromstring(data)
    rows = [
        (
            e.get("annotation"),
            int(e.get("cc")),
            int(e.get("loc")),
            int(e.get("sloc")),
            int(e.get("cloc")),
            int(e.get("startLine")),
            int(e.get("endLine")),
        )
        for e in root.iter("element")
    ]
    t = root.find("totals")
    return rows, (int(t.get("loc")), int(t.get("sloc")), int(t.get("cloc")))


def check_metrics(source: Source, data: bytes, extended: bool) -> list[str]:
    """Report rows, row counts per annotation and file totals."""
    lines = LineOracle(source.raw(), source.language)
    rows, totals = read_metrics(data)
    problems = []
    got_counts = dict.fromkeys(ANNOTATIONS, 0)
    for row in rows:
        got_counts[row[0]] = got_counts.get(row[0], 0) + 1
    want_counts = construct_counts(source)
    if got_counts != want_counts:
        problems.append(f"rows per annotation {got_counts} != constructs {want_counts}")
    want_rows = expected_rows(source, lines, extended)
    for index, (got, want) in enumerate(zip(rows, want_rows)):
        if got != want:
            problems.append(f"row {index}: got {got}, want {want}")
        if len(problems) >= MAX_PROBLEMS:
            break
    if totals != lines.totals():
        problems.append(f"totals {totals} != line oracle {lines.totals()}")
    return [f"{source.name}: {p}" for p in problems]


# -- tree XML ------------------------------------------------------------------


class TreeFacts:
    """What the benchmark reads from a tree document on its own."""

    def __init__(self, data: bytes):
        root = ET.fromstring(data)
        self.tokens: list[tuple[int, int, str]] = []  # (line, col, lexeme)
        self.elements: list[tuple] = []  # (annotation, startLine, endLine, decisions)
        self.nodes = 0
        self.comments = 0
        self.max_depth = 0
        self._walk(root)

    def _walk(self, root) -> None:
        # iterative post-order so that deep trees need no recursion
        stack = [(child, 1, False) for child in reversed(list(root))]
        frames: list[list] = []
        while stack:
            el, depth, done = stack.pop()
            if el.tag == "token":
                self.nodes += 1
                self.max_depth = max(self.max_depth, depth)
                line, col = int(el.get("line")), int(el.get("col"))
                end_line = int(el.get("endLine"))
                self.tokens.append((line, col, el.text or ""))
                if el.get("type") == "comment":
                    self.comments += 1
                if frames:
                    frames[-1][1] = min(frames[-1][1], line)
                    frames[-1][2] = max(frames[-1][2], end_line)
                continue
            if not done:
                self.nodes += 1
                self.max_depth = max(self.max_depth, depth)
                kind = el.get("kind")
                frame = [kind, 1 << 60, 0, 0, None]
                if kind in ANNOTATIONS:
                    frame[4] = len(self.elements)
                    self.elements.append(None)
                frames.append(frame)
                stack.append((el, depth, True))
                stack.extend((child, depth + 1, False) for child in reversed(list(el)))
                continue
            kind, first, last, decisions, slot = frames.pop()
            if kind == "LOOP_STATEMENT" or (
                kind == "BRANCH" and any(c.get("kind") == "CONDITION" for c in el)
            ):
                decisions += 1
            if slot is not None:
                self.elements[slot] = (kind, first, last, decisions)
            if frames:
                parent = frames[-1]
                parent[1] = min(parent[1], first)
                parent[2] = max(parent[2], last)
                parent[3] += decisions

    def non_space(self) -> str:
        ordered = sorted(self.tokens, key=lambda t: (t[0], t[1]))
        return _SPACE.sub("", "".join(t[2] for t in ordered))


def check_tree(source: Source, facts: TreeFacts) -> list[str]:
    """Tokens cover the source; constructs sit where the generator put them."""
    problems = []
    if facts.non_space() != _SPACE.sub("", source.text):
        problems.append("token lexemes in (line, col) order differ from the source")
    lines = LineOracle(source.raw(), source.language)
    want = []
    for c in source.constructs:
        first, last = lines.line_of(c.start), lines.line_of(c.end - 1)
        want.append((c.annotation, first, last, c.decisions))
    if len(want) != len(facts.elements):
        problems.append(f"{len(facts.elements)} constructs in the tree, {len(want)} written")
    for index, (got, exp) in enumerate(zip(facts.elements, want)):
        if got != exp:
            problems.append(f"construct {index}: got {got}, want {exp}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return [f"{source.name}: {p}" for p in problems]

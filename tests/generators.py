"""Seeded random program generator for both language subsets.

Programs nest loops and branches to a bounded depth while the
generator records, per unit, how many decision points and logical
operators it emitted.  Those counts are the ground truth the metric
implementation is checked against.

mutate_tree_document edits a tree XML document at random, to hold the
reader's messages and their precedence against a reference reader.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field


@dataclass
class UnitCounts:
    decisions: int = 0
    logicals: int = 0


@dataclass
class GeneratedProgram:
    language_id: str
    source: str
    units: dict = field(default_factory=dict)


MAX_DEPTH = 5


class _Emitter:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.counts: UnitCounts | None = None

    # -- shared randomness -------------------------------------------------

    def _var(self) -> str:
        return self.rng.choice(("a", "k"))

    def _value(self) -> str:
        return str(self.rng.randint(0, 99))


class _Modula2Emitter(_Emitter):
    language_id = "modula2"

    def program(self, seed: int, n_units: int) -> GeneratedProgram:
        units = {}
        parts = [f"MODULE Gen{seed};", ""]
        for u in range(n_units):
            name = f"P{u}"
            self.counts = UnitCounts()
            body = self._seq(depth=0, indent="   ")
            parts.append(f"PROCEDURE {name}(VAR a: INTEGER);")
            parts.append("VAR")
            parts.append("   k: INTEGER;")
            parts.append("BEGIN")
            parts.append(body)
            parts.append(f"END {name};")
            parts.append("")
            units[name] = self.counts
        parts.append(f"END Gen{seed}.")
        return GeneratedProgram(self.language_id, "\n".join(parts) + "\n", units)

    def _expr(self) -> str:
        v, w = self._var(), self._value()
        op = self.rng.choice(("+", "-", "*", "DIV"))
        return f"{v} {op} {w}"

    def _cond(self, depth: int = 0) -> str:
        v, w = self._var(), self._value()
        rel = self.rng.choice(("<", ">", "<=", ">=", "=", "#"))
        simple = f"{v} {rel} {w}"
        if depth < 1 and self.rng.random() < 0.3:
            logical = self.rng.choice(("AND", "OR"))
            self.counts.logicals += 1
            return f"({simple}) {logical} ({self._cond(depth + 1)})"
        return simple

    def _seq(self, depth: int, indent: str) -> str:
        stmts = []
        for _ in range(self.rng.randint(1, 3)):
            stmts.append(self._statement(depth, indent))
        if self.rng.random() < 0.15:
            stmts.append(f"{indent}(* generated note *)\n{indent}a := a")
        return ";\n".join(stmts)

    def _statement(self, depth: int, indent: str) -> str:
        deeper = indent + "   "
        roll = self.rng.random() if depth < MAX_DEPTH else 1.0
        if roll < 0.2:
            self.counts.decisions += 1
            branches = [
                f"{indent}IF {self._cond()} THEN\n{self._seq(depth + 1, deeper)}"
            ]
            for _ in range(self.rng.randint(0, 2)):
                self.counts.decisions += 1
                branches.append(
                    f"{indent}ELSIF {self._cond()} THEN\n{self._seq(depth + 1, deeper)}"
                )
            if self.rng.random() < 0.5:
                branches.append(f"{indent}ELSE\n{self._seq(depth + 1, deeper)}")
            return "\n".join(branches) + f"\n{indent}END"
        if roll < 0.3:
            self.counts.decisions += 1
            return (
                f"{indent}WHILE {self._cond()} DO\n"
                f"{self._seq(depth + 1, deeper)}\n{indent}END"
            )
        if roll < 0.4:
            self.counts.decisions += 1
            return (
                f"{indent}REPEAT\n{self._seq(depth + 1, deeper)}\n"
                f"{indent}UNTIL {self._cond()}"
            )
        if roll < 0.5:
            self.counts.decisions += 1
            return (
                f"{indent}FOR k := 1 TO {self._value()} DO\n"
                f"{self._seq(depth + 1, deeper)}\n{indent}END"
            )
        if roll < 0.6:
            return f"{indent}INC({self._var()})"
        return f"{indent}{self._var()} := {self._expr()}"


class _JavaEmitter(_Emitter):
    language_id = "javaoo"

    def program(self, seed: int, n_units: int) -> GeneratedProgram:
        units = {}
        parts = [f"class Gen{seed} {{"]
        for u in range(n_units):
            name = f"m{u}"
            self.counts = UnitCounts()
            body = self._seq(depth=0, indent="        ")
            parts.append(f"    static void {name}(int a) {{")
            parts.append("        int k = 0;")
            parts.append(body)
            parts.append("    }")
            units[name] = self.counts
        parts.append("}")
        return GeneratedProgram(self.language_id, "\n".join(parts) + "\n", units)

    def _expr(self) -> str:
        v, w = self._var(), self._value()
        op = self.rng.choice(("+", "-", "*", "%"))
        return f"{v} {op} {w}"

    def _cond(self, depth: int = 0) -> str:
        v, w = self._var(), self._value()
        rel = self.rng.choice(("<", ">", "<=", ">=", "==", "!="))
        simple = f"{v} {rel} {w}"
        if depth < 1 and self.rng.random() < 0.3:
            logical = self.rng.choice(("&&", "||"))
            self.counts.logicals += 1
            return f"{simple} {logical} {self._cond(depth + 1)}"
        return simple

    def _seq(self, depth: int, indent: str) -> str:
        stmts = []
        for _ in range(self.rng.randint(1, 3)):
            stmts.append(self._statement(depth, indent))
        if self.rng.random() < 0.15:
            stmts.append(f"{indent}// generated note")
        return "\n".join(stmts)

    def _statement(self, depth: int, indent: str) -> str:
        deeper = indent + "    "
        roll = self.rng.random() if depth < MAX_DEPTH else 1.0
        if roll < 0.2:
            self.counts.decisions += 1
            text = (
                f"{indent}if ({self._cond()}) {{\n"
                f"{self._seq(depth + 1, deeper)}\n{indent}}}"
            )
            for _ in range(self.rng.randint(0, 2)):
                self.counts.decisions += 1
                text += (
                    f" else if ({self._cond()}) {{\n"
                    f"{self._seq(depth + 1, deeper)}\n{indent}}}"
                )
            if self.rng.random() < 0.5:
                text += f" else {{\n{self._seq(depth + 1, deeper)}\n{indent}}}"
            return text
        if roll < 0.3:
            self.counts.decisions += 1
            return (
                f"{indent}while ({self._cond()}) {{\n"
                f"{self._seq(depth + 1, deeper)}\n{indent}}}"
            )
        if roll < 0.4:
            self.counts.decisions += 1
            return (
                f"{indent}do {{\n{self._seq(depth + 1, deeper)}\n"
                f"{indent}}} while ({self._cond()});"
            )
        if roll < 0.5:
            self.counts.decisions += 1
            return (
                f"{indent}for (k = 0; k < {self._value()}; k++) {{\n"
                f"{self._seq(depth + 1, deeper)}\n{indent}}}"
            )
        if roll < 0.6:
            return f"{indent}{self._var()}++;"
        return f"{indent}{self._var()} = {self._expr()};"


def generate(language_id: str, seed: int) -> GeneratedProgram:
    """One reproducible random program with tracked per-unit counts."""
    if language_id == "modula2":
        emitter = _Modula2Emitter(seed)
    elif language_id == "javaoo":
        emitter = _JavaEmitter(seed)
    else:
        raise ValueError(f"no generator for language {language_id!r}")
    rng = random.Random(seed * 7919 + 17)
    return emitter.program(seed, n_units=rng.randint(1, 3))


# -- tree XML mutations ----------------------------------------------------

_TOKEN = re.compile(r"<token [^>]*>[^<]*</token>")
_TOKEN_TAG = re.compile(r"<token [^>]*>")
_LEXEME = re.compile(r"(?<=\">)[^<]*(?=</token>)")
_POSITION = re.compile(r'\b(line|col|endLine|endCol)="[^"]*"')
_NODE_TAG = re.compile(r"<node [^>]*>")
_END_TAG = re.compile(r"</(node|token)>")
_BETWEEN = re.compile(r">\n")


def _pick(pattern, doc, rng):
    matches = list(pattern.finditer(doc))
    return rng.choice(matches) if matches else None


def _splice(doc, match, text):
    return doc[: match.start()] + text + doc[match.end() :]


def _edit_position(doc, rng):
    tag = _pick(_TOKEN_TAG, doc, rng)
    if tag is None:
        return doc
    attrs = list(_POSITION.finditer(tag.group()))
    if not attrs:
        return doc
    attr = rng.choice(attrs)
    value = rng.choice(["0", "-3", "x", "", " 7 ", "1_2", "+2", "99999", "\u0663", "1.0"])
    new = "" if rng.random() < 0.25 else f'{attr.group(1)}="{value}"'
    text = tag.group()
    return _splice(doc, tag, text[: attr.start()] + new + text[attr.end() :])


def _reverse_span(doc, rng):
    tag = _pick(_TOKEN_TAG, doc, rng)
    if tag is None:
        return doc
    values = dict(
        re.findall(r'\b(line|col|endLine|endCol)="([^"]*)"', tag.group())
    )
    a, b = rng.choice([("line", "endLine"), ("col", "endCol")])
    if a not in values or b not in values:
        return doc
    text = re.sub(
        rf'\b({a}|{b})="[^"]*"',
        lambda m: f'{m.group(1)}="{values[b if m.group(1) == a else a]}"',
        tag.group(),
    )
    return _splice(doc, tag, text)


def _edit_type(doc, rng):
    attr = _pick(re.compile(r' type="[^"]*"'), doc, rng)
    if attr is None:
        return doc
    value = rng.choice(["wibble", "", "Keyword", "comment", "literal"])
    return _splice(doc, attr, "" if rng.random() < 0.25 else f' type="{value}"')


def _edit_kind(doc, rng):
    attr = _pick(re.compile(r' kind="[^"]*"'), doc, rng)
    if attr is None:
        return doc
    value = rng.choice(
        ["WIDGET", "branch", "", "CONDITION", "BRANCH", "LOOP_STATEMENT", "FUNCTION_DECL"]
    )
    return _splice(doc, attr, "" if rng.random() < 0.25 else f' kind="{value}"')


def _text_in_node(doc, rng):
    tag = _pick(rng.choice([_NODE_TAG, re.compile("</node>")]), doc, rng)
    if tag is None:
        return doc
    text = rng.choice(["stray", "&amp;", " \t\n ", "<!-- c -->x", "\n  "])
    if tag.group().startswith("</"):
        return doc[: tag.start()] + text + doc[tag.start() :]
    return doc[: tag.end()] + text + doc[tag.end() :]


def _element_in_token(doc, rng):
    lexeme = _pick(_LEXEME, doc, rng)
    if lexeme is None:
        return doc
    child = rng.choice(
        [
            '<node kind="BRANCH"/>',
            "<widget/>",
            '<token type="identifier" line="1" col="1" endLine="1" endCol="1">y</token>',
            "<token>z</token>",
        ]
    )
    at = rng.randint(lexeme.start(), lexeme.end())
    return doc[:at] + child + doc[at:]


def _unknown_element(doc, rng):
    if rng.random() < 0.5:
        token = _pick(_TOKEN, doc, rng)
        return doc if token is None else _splice(doc, token, "<widget/>")
    gap = _pick(_BETWEEN, doc, rng)
    return doc if gap is None else _splice(doc, gap, "><widget>x</widget>\n")


def _edit_lexeme(doc, rng):
    lexeme = _pick(_LEXEME, doc, rng)
    if lexeme is None:
        return doc
    if rng.random() < 0.5:
        return _splice(doc, lexeme, rng.choice(["", " ", "\n"]))
    piece = rng.choice(
        ["&lt;", "&#65;", "&amp;&gt;", "<!-- c -->", "<![CDATA[x]]>", "<?pi x?>"]
    )
    at = rng.randint(lexeme.start(), lexeme.end())
    return doc[:at] + piece + doc[at:]


def _drop_end_tag(doc, rng):
    tag = _pick(_END_TAG, doc, rng)
    return doc if tag is None else _splice(doc, tag, "")


def _edit_root(doc, rng):
    edit = rng.randrange(6)
    if edit == 0:
        return doc.replace("<ecst ", "<tree ", 1).replace("</ecst>", "</tree>")
    if edit == 1:
        return re.sub(rng.choice([r' source="[^"]*"', r' language="[^"]*"']), "", doc, 1)
    if edit == 2:
        value = rng.choice(["0", "x", ""])
        return re.sub(r'totalLines="[^"]*"', f'totalLines="{value}"', doc, 1)
    if edit == 3:
        return doc.replace("</ecst>", '<node kind="COMPILATION_UNIT"/></ecst>')
    if edit == 4:
        kind = rng.choice(["FUNCTION_DECL", "BRANCH"])
        return doc.replace('kind="COMPILATION_UNIT"', f'kind="{kind}"', 1)
    token = _pick(_TOKEN, doc, rng)
    if token is None:
        return doc
    head = doc[: doc.index(">") + 1]
    return f"{head}{token.group()}</ecst>\n"


def _move_token(doc, rng):
    tokens = list(_TOKEN.finditer(doc))
    if len(tokens) < 2:
        return doc
    a, b = sorted(rng.sample(tokens, 2), key=lambda m: m.start())
    if rng.random() < 0.5:  # swap the two
        return (
            doc[: a.start()] + b.group() + doc[a.end() : b.start()] + a.group()
            + doc[b.end() :]
        )
    return _splice(doc, a, "")  # or drop one


TREE_EDITS = (
    _edit_position,
    _reverse_span,
    _edit_type,
    _edit_kind,
    _text_in_node,
    _element_in_token,
    _unknown_element,
    _edit_lexeme,
    _drop_end_tag,
    _edit_root,
    _move_token,
)


def mutate_tree_document(doc: str, rng: random.Random) -> str:
    """doc after one to four edits drawn from TREE_EDITS: positions that
    are zero, missing or not integers, reversed spans, unknown types and
    kinds, text in a node, an element in a token, unknown elements, empty
    lexemes, entities and XML comments in a lexeme, dropped end tags, a
    wrong root, and tokens out of order."""
    for _ in range(rng.randint(1, 4)):
        doc = rng.choice(TREE_EDITS)(doc, rng)
    return doc

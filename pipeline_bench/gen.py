"""Seeded Java and Modula-2 source generators for the pipeline benchmark.

Each generator writes a source file and, while writing it, records every
construct that the program should report: its annotation, the McCabe
decision points and the condition logical operators inside it, and the
text offsets of its first and last token.  Those records are the ground
truth the benchmark checks the program's output against.  Nothing here
imports the program.

Decision points follow McCabe ("A Complexity Measure", TSE 1976): every
loop and every branch that carries a condition is one decision; an else
branch is none.  A unit's CC is 1 + its decisions; loop, branch-chain and
branch rows carry the bare decision count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

JAVA = "javaoo"
MODULA2 = "modula2"
EXTENSIONS = {JAVA: ".java", MODULA2: ".mod"}

FUNCTION = "FUNCTION_DECL"
LOOP = "LOOP_STATEMENT"
CHAIN = "BRANCH_STATEMENT"
BRANCH = "BRANCH"
ANNOTATIONS = (FUNCTION, LOOP, CHAIN, BRANCH)

_PLAIN_WORDS = (
    "scan the next entry and keep a running total for the caller "
    "bounds checked before the swap when the index wraps reset it here"
).split()
# Comments also carry characters that XML must escape, and quotes.
_WORDS = _PLAIN_WORDS + ["x < y && z > 0", "'quoted'", '"text"', "50%", "a/b"]


@dataclass
class Construct:
    """One expected report row."""

    annotation: str
    start: int  # offset of the first character of the first token
    end: int = 0  # offset just past the last character of the last token
    decisions: int = 0  # decision points in the subtree, its own included
    logicals: int = 0  # logical operators inside conditions in the subtree

    def cc(self, extended: bool) -> int:
        base = 1 if self.annotation == FUNCTION else 0
        return base + self.decisions + (self.logicals if extended else 0)


@dataclass
class Source:
    """A generated file: normalised text plus its expected constructs."""

    name: str
    language: str
    text: str  # "\n" line breaks; offsets in constructs refer to this text
    constructs: list = field(default_factory=list)  # preorder
    newline: str = "\n"  # line break used when the file is written

    def raw(self) -> str:
        if self.newline == "\n":
            return self.text
        return self.text.replace("\n", self.newline)


@dataclass(frozen=True)
class Profile:
    """Shape of the code one generator call writes."""

    target_chars: int  # keep adding units until the text is this long
    unit_statements: tuple = (4, 14)  # statements per unit; the low end caps nested bodies
    max_depth: int = 2  # nesting of loops and branch chains
    p_construct: float = 0.25  # chance that a statement is a construct
    p_trailing: float = 0.1  # trailing comment on a statement
    p_line_comment: float = 0.05  # comment on its own line before a statement
    p_block_comment: float = 0.02  # multi-line block comment before a statement
    p_logical: float = 0.4  # chance that a condition joins two or more tests
    tower_depth: int = 0  # >0: the first unit nests constructs this deep
    single_unit: bool = False  # one unit holds every statement


class _Writer:
    """Text buffer that tracks offsets and the open constructs."""

    def __init__(self):
        self.parts: list[str] = []
        self.pos = 0
        self.code_end = 0  # offset just past the last token written
        self.stack: list[Construct] = []
        self.constructs: list[Construct] = []

    def put(self, text: str, code: bool = True) -> None:
        """Append text; code=False marks comments and line breaks."""
        self.parts.append(text)
        self.pos += len(text)
        if code:
            self.code_end = self.pos

    def open(self, annotation: str) -> Construct:
        construct = Construct(annotation, self.pos)
        self.constructs.append(construct)
        self.stack.append(construct)
        return construct

    def close(self) -> None:
        construct = self.stack.pop()
        construct.end = self.code_end
        if self.stack:
            self.stack[-1].decisions += construct.decisions
            self.stack[-1].logicals += construct.logicals

    def decision(self) -> None:
        self.stack[-1].decisions += 1

    def logical(self, count: int) -> None:
        if count:
            self.stack[-1].logicals += count

    def text(self) -> str:
        return "".join(self.parts)


class _Emitter:
    """Language-neutral statement planning; subclasses spell it out."""

    language = ""
    indent_unit = ""

    def __init__(self, rng: random.Random, profile: Profile):
        self.rng = rng
        self.p = profile
        self.w = _Writer()
        self.units = 0

    # -- shared randomness -------------------------------------------------

    def words(self, lo: int = 2, hi: int = 7, vocabulary=_WORDS) -> str:
        count = self.rng.randint(lo, hi)
        return " ".join(self.rng.choice(vocabulary) for _ in range(count))

    def var(self) -> str:
        return self.rng.choice(("i", "j", "k", "n", "total", "count", "acc"))

    def num(self) -> str:
        return str(self.rng.randint(0, 999))

    # -- statements ----------------------------------------------------------

    def body(self, indent: str, depth: int, count: int, closed: bool = True) -> None:
        """Write count statements.

        closed: a keyword such as END follows, so the last statement may
        go without a separator (Modula-2; Java ignores separators here).
        """
        for index in range(count):
            if index and self.w.pos >= self.p.target_chars:
                return  # keep small files near their target size
            self.statement(indent, depth, closed and index == count - 1)

    def statement(self, indent: str, depth: int, last: bool) -> None:
        self.comments_before(indent)
        if depth < self.p.max_depth and self.rng.random() < self.p.p_construct:
            count = self.rng.randint(1, max(1, self.p.unit_statements[0]))
            inner = lambda: self.body(indent + self.indent_unit, depth + 1, count)  # noqa: E731
            if self.rng.random() < 0.5:
                self.loop(indent, inner, last)
            else:
                self.chain(indent, inner, last)
        else:
            self.simple(indent, last)
        self.end_line()

    def long_body(self, indent: str) -> None:
        """A flat body that grows statement by statement to the target size."""
        while self.w.pos < self.p.target_chars:
            self.statement(indent, 0, False)

    def tower(self, indent: str, levels: int) -> None:
        """Nest levels constructs, each inside the last.

        The shape depends on the level alone, so every seed writes trees of
        the same cost at a given depth: every eighth level is an
        if/else-if chain and the others cycle through the loop kinds; every
        fourth condition joins two tests; every fourth level adds a
        statement.
        """
        self.comments_before(indent)
        if levels % 4 == 0:
            self.simple(indent, False)
            self.end_line()
        if levels == 0:
            return
        # deep code keeps a bounded indent, as generated code often does
        inner_indent = indent + self.indent_unit if len(indent) < 48 else indent
        inner = lambda: self.tower(inner_indent, levels - 1)  # noqa: E731
        extra = int(levels % 4 == 1)
        if levels % 8:
            self.loop(indent, inner, False, kind=levels % 3, extra=extra)
        else:
            self.chain(indent, inner, False, arms=2, with_else=levels % 16 == 0, extra=extra)
        self.end_line()

    def comments_before(self, indent: str) -> None:
        r = self.rng.random()
        if r < self.p.p_block_comment:
            self.block_comment(indent)
        elif r < self.p.p_block_comment + self.p.p_line_comment:
            self.line_comment(indent)

    def end_line(self) -> None:
        if self.rng.random() < self.p.p_trailing:
            self.trailing_comment()
        self.w.put("\n", code=False)

    def condition(self, extra: int | None = None) -> str:
        """Tests joined by extra logical operators (random when None)."""
        if extra is None:
            extra = self.rng.choice((1, 1, 2, 3)) if self.rng.random() < self.p.p_logical else 0
        tests = [self.test()]
        for _ in range(extra):
            tests.append(self.rng.choice(self.LOGICAL_OPS))
            tests.append(self.test())
        self.w.logical(extra)
        return " ".join(tests)

    def loop_kind(self, kind: int | None) -> int:
        """0 while, 1 do/REPEAT, 2 for, 3 Java for without a test part."""
        if kind is None:
            kind = self.rng.choices((0, 1, 2, 3), weights=(45, 25, 27, 3))[0]
        return kind

    def chain_shape(self, arms, with_else, extra) -> tuple[int, bool, int, tuple]:
        """(conditional arms, whether an else follows, arm holding the nested
        code, logical operators per arm); extra is one count for every arm,
        a count per arm, or None for random."""
        arms = self.rng.randint(1, 3) if arms is None else arms
        with_else = self.rng.random() < 0.5 if with_else is None else with_else
        extras = tuple(extra) if isinstance(extra, (tuple, list)) else (extra,) * arms
        return arms, with_else, self.rng.randrange(arms + with_else), extras

    # -- files ---------------------------------------------------------------

    def units_until_full(self, indent: str) -> None:
        """Write units until the target size is reached (at least one)."""
        while True:
            if self.p.tower_depth and self.units == 0:
                self.unit(indent, lambda ind: self.tower(ind, self.p.tower_depth))
            elif self.p.single_unit:
                self.unit(indent, self.long_body)
            else:
                count = self.rng.randint(*self.p.unit_statements)
                self.unit(indent, lambda ind: self.body(ind, 0, count, closed=False))
            if self.w.pos >= self.p.target_chars or self.p.single_unit:
                return


class _JavaEmitter(_Emitter):
    language = JAVA
    indent_unit = "    "
    LOGICAL_OPS = ("&&", "||")

    def test(self) -> str:
        rel = self.rng.choice(("<", ">", "<=", ">=", "==", "!="))
        left = self.var()
        if self.rng.random() < 0.2:
            left = self.rng.choice((f"data[{left}]", f"f({left})"))
        return f"{left} {rel} {self.num()}"

    def simple(self, indent: str, last: bool) -> None:
        v = self.var()
        choice = self.rng.random()
        if choice < 0.35:
            text = f"{v} = {self.var()} + {self.num()} * {self.var()};"
        elif choice < 0.5:
            text = f"{v}++;"
        elif choice < 0.65:
            text = f"data[{v}] = data[{self.var()}] - {self.num()};"
        elif choice < 0.75:
            text = f'log("{self.words(1, 4, _PLAIN_WORDS)} // not a comment", {v});'
        elif choice < 0.85:
            # logical operators outside a condition add no decision
            text = f"ok = {self.test()} && {self.test()};"
        else:
            text = f"int t{self.rng.randint(0, 99)} = {v} % {self.num()};"
        self.w.put(indent + text)

    def line_comment(self, indent: str) -> None:
        self.w.put(f"{indent}// {self.words()}\n", code=False)

    def block_comment(self, indent: str) -> None:
        lines = [f"{indent}/* {self.words()}"]
        for _ in range(self.rng.randint(1, 3)):
            lines.append(f"{indent} * {self.words()}")
        lines.append(f"{indent} */\n")
        self.w.put("\n".join(lines), code=False)

    def trailing_comment(self) -> None:
        if self.rng.random() < 0.8:
            self.w.put(f" // {self.words()}", code=False)
        else:
            self.w.put(f" /* {self.words(1, 3)} */", code=False)

    def block(self, indent: str, inner) -> None:
        self.w.put("{")
        self.end_line()
        inner()
        self.w.put(indent + "}")

    def loop(self, indent: str, inner, last: bool, kind=None, extra=None) -> None:
        kind = self.loop_kind(kind)
        self.w.put(indent)
        self.w.open(LOOP)
        self.w.decision()
        if kind == 0:
            self.w.put(f"while ({self.condition(extra)}) ")
            self.block(indent, inner)
        elif kind == 1:
            self.w.put("do ")
            self.block(indent, inner)
            self.w.put(f" while ({self.condition(extra)});")
        else:
            v = self.var()
            if kind == 3:
                self.w.put("for (;;) ")  # no test part: still one decision
            else:
                self.w.put(f"for (int {v}x = 0; {self.condition(extra)}; {v}x++) ")
            self.block(indent, inner)
        self.w.close()

    def chain(self, indent: str, inner, last: bool, arms=None, with_else=None, extra=None) -> None:
        arms, with_else, nested_arm, extras = self.chain_shape(arms, with_else, extra)
        self.w.put(indent)
        self.w.open(CHAIN)
        for arm in range(arms + with_else):
            body = inner if arm == nested_arm else lambda: self.plain(indent)
            if arm:
                self.w.put(" ")
            self.w.open(BRANCH)
            if arm < arms:
                self.w.decision()
                head = "if" if arm == 0 else "else if"
                self.w.put(f"{head} ({self.condition(extras[arm])}) ")
            else:
                self.w.put("else ")
            self.block(indent, body)
            self.w.close()
        self.w.close()

    def plain(self, indent: str) -> None:
        self.simple(indent + self.indent_unit, True)
        self.end_line()

    def unit(self, indent: str, write_body) -> None:
        self.comments_before(indent)
        name = f"m{self.units}"
        self.units += 1
        self.w.put(indent)
        self.w.open(FUNCTION)
        self.w.put(f"static int {name}(int i, int n) ")
        self.w.put("{")
        self.end_line()
        write_body(indent + self.indent_unit)
        self.w.put(f"{indent + self.indent_unit}return total;\n")
        self.w.put(indent + "}")
        self.w.close()
        self.w.put("\n\n")

    def file(self, name: str) -> str:
        self.w.put(f"// {name}: generated\n", code=False)
        self.w.put(f"class {name.split('.')[0].capitalize()} {{\n")
        self.w.put("    static int total = 0;\n    static int[] data = new int[64];\n\n")
        self.units_until_full("    ")
        self.w.put("}\n")
        return self.w.text()


class _Modula2Emitter(_Emitter):
    language = MODULA2
    indent_unit = "   "
    LOGICAL_OPS = ("AND", "OR", "&")

    def test(self) -> str:
        rel = self.rng.choice(("<", ">", "<=", ">=", "=", "#"))
        left = self.var()
        if self.rng.random() < 0.2:
            left = self.rng.choice((f"data[{left}]", f"F({left})"))
        return f"({left} {rel} {self.num()})"

    def simple(self, indent: str, last: bool) -> None:
        v = self.var()
        choice = self.rng.random()
        if choice < 0.4:
            text = f"{v} := {self.var()} + {self.num()} * {self.var()}"
        elif choice < 0.55:
            text = f"INC({v})"
        elif choice < 0.7:
            text = f"data[{v}] := data[{self.var()}] DIV {self.rng.randint(1, 9)}"
        elif choice < 0.8:
            text = f"WriteString('{self.words(1, 4, _PLAIN_WORDS)} (* not a comment *)')"
        elif choice < 0.9:
            # logical operators outside a condition add no decision
            text = f"ok := {self.test()} AND {self.test()}"
        else:
            text = f"{v} := {v} MOD {self.rng.randint(1, 9)}"
        self.w.put(indent + text + ("" if last else ";"))

    def line_comment(self, indent: str) -> None:
        if self.rng.random() < 0.3:
            self.w.put(f"{indent}(* {self.words()} (* {self.words(1, 3)} *) *)\n", code=False)
        else:
            self.w.put(f"{indent}(* {self.words()} *)\n", code=False)

    def block_comment(self, indent: str) -> None:
        lines = [f"{indent}(* {self.words()}"]
        for _ in range(self.rng.randint(1, 3)):
            lines.append(f"{indent}   {self.words()}")
        lines.append(f"{indent}   (* nested {self.words(1, 3)} *) *)\n")
        self.w.put("\n".join(lines), code=False)

    def trailing_comment(self) -> None:
        if self.rng.random() < 0.2:
            self.w.put(f" (* {self.words(1, 3)} (* {self.words(1, 2)} *) *)", code=False)
        else:
            self.w.put(f" (* {self.words()} *)", code=False)

    def loop(self, indent: str, inner, last: bool, kind=None, extra=None) -> None:
        kind = self.loop_kind(kind)
        self.w.put(indent)
        self.w.open(LOOP)
        self.w.decision()
        if kind == 0:
            self.w.put(f"WHILE {self.condition(extra)} DO")
            self.end_line()
            inner()
            self.w.put(indent + "END")
        elif kind == 1:
            self.w.put("REPEAT")
            self.end_line()
            inner()
            self.w.put(f"{indent}UNTIL {self.condition(extra)}")
        else:
            # the bound expression is the loop's condition (kind 3 reads as 2)
            step = f" BY {self.rng.randint(1, 3)}" if self.rng.random() < 0.3 else ""
            self.w.put(f"FOR {self.var()} := 1 TO {self.var()}{step} DO")
            self.end_line()
            inner()
            self.w.put(indent + "END")
        self.w.close()
        self.w.put("" if last else ";")

    def chain(self, indent: str, inner, last: bool, arms=None, with_else=None, extra=None) -> None:
        arms, with_else, nested_arm, extras = self.chain_shape(arms, with_else, extra)
        self.w.put(indent)
        self.w.open(CHAIN)
        for arm in range(arms + with_else):
            body = inner if arm == nested_arm else lambda: self.plain(indent)
            if arm:
                self.w.put(indent)
            self.w.open(BRANCH)
            if arm < arms:
                self.w.decision()
                head = "IF" if arm == 0 else "ELSIF"
                self.w.put(f"{head} {self.condition(extras[arm])} THEN")
            else:
                self.w.put("ELSE")
            self.end_line()
            body()
            self.w.close()
        self.w.put(indent + "END")
        self.w.close()
        self.w.put("" if last else ";")

    def plain(self, indent: str) -> None:
        self.simple(indent + self.indent_unit, True)
        self.w.put("\n", code=False)

    def unit(self, indent: str, write_body) -> None:
        self.comments_before(indent)
        name = f"Proc{self.units}"
        self.units += 1
        self.w.put(indent)
        self.w.open(FUNCTION)
        self.w.put(f"PROCEDURE {name}(i, n: INTEGER): INTEGER;\n")
        self.w.put(f"VAR\n{indent}   j, k, count, acc: INTEGER;\n{indent}   ok: BOOLEAN;\n")
        self.w.put("BEGIN\n")
        write_body(indent + self.indent_unit)
        self.w.put(f"{indent + self.indent_unit}RETURN total\n")
        self.w.put(f"{indent}END {name};")
        self.w.close()
        self.w.put("\n\n")

    def file(self, name: str) -> str:
        module = name.split(".")[0].capitalize()
        self.w.put(f"(* {name}: generated *)\nMODULE {module};\n\nFROM InOut IMPORT WriteString;\n\n")
        self.w.put("VAR\n   total: INTEGER;\n   data: ARRAY [0 .. 63] OF INTEGER;\n\n")
        self.units_until_full("")
        self.w.put(f"BEGIN\n   total := 0\nEND {module}.\n")
        return self.w.text()


_EMITTERS = {JAVA: _JavaEmitter, MODULA2: _Modula2Emitter}


def generate(language: str, name: str, seed_text: str, profile: Profile) -> Source:
    """One source file; the same arguments always give the same file."""
    emitter = _EMITTERS[language](random.Random(seed_text), profile)
    text = emitter.file(name)
    return Source(name, language, text, emitter.w.constructs)

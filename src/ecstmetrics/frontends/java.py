"""Java frontend: lexical rules (JavaParser.SPEC) and parser.

Supported subset: classes with fields and (possibly static) methods,
local declarations, assignment and call statements, return/break/
continue, if/else-if/else, while, do-while, and for.  Class headers,
fields, and expressions stay flat; universal nodes mark only methods,
loops, and branches.
"""

from __future__ import annotations

from ..scan import LexerSpec
from .base import BRANCH, BRANCHING, CONDITION, FUNCTION, LOOP, BaseParser

MODIFIERS = ("public", "private", "protected", "static", "final")

# Keywords that may open a flat statement: declarations, and return,
# break and continue.
FLAT_KEYWORDS = frozenset(
    {"int", "long", "short", "byte", "char", "boolean", "float", "double", "final", "new"}
    | {"return", "break", "continue"}
)


class JavaParser(BaseParser):
    SPEC = LexerSpec(
        keywords=frozenset(
            """class public private protected static final void int long short
               byte char boolean float double if else while do for return new
               break continue""".split()
        ),
        operator_words=frozenset(),
        literal_words=frozenset({"true", "false", "null"}),
        two_char_ops=frozenset(
            {"==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%="}
        ),
        single_chars="+-*/%=<>!()[]{},;.",
        punctuation=frozenset({"(", ")", "[", "]", "{", "}", ",", ";", "."}),
        line_comment="//",
        block_open="/*",
        block_close="*/",
        nested_blocks=False,
        string_escapes=True,
    )

    def _opens_construct(self, j: int) -> bool:
        # After "." the keyword is a member name, as in the literal A.class.
        return self.toks[j - 1][0] != "."

    def parse_compilation_unit(self) -> None:
        if self._peek() is None:
            self._error("empty compilation unit")
        while self._peek() is not None:
            self._class_declaration()

    # -- class structure ---------------------------------------------------

    def _class_declaration(self) -> None:
        while self._at(*MODIFIERS):
            self._advance()
        self._expect("class")
        self._expect_type("identifier")
        self._expect("{")
        while not self._at("}"):
            if self._peek() is None:
                self._error("expected '}', found end of input")
            self._member()
        self._expect("}")

    def _member(self) -> None:
        j = self.i
        decide = None
        while j < len(self.toks):
            lex = self.toks[j][0]
            if lex in ("(", "=", ";", "{"):
                decide = lex
                break
            j += 1
        if decide == "(":
            self._method()
        elif decide == "{":
            self._error("unsupported class member")
        else:
            self._flat_until({";"})
            self._expect(";")

    def _method(self) -> None:
        self._enter_level()
        self._put(FUNCTION)
        head = self._flat_until({"("})
        if not head or head[-1][1] != "identifier":
            self._expect_type("identifier")  # a method needs its name
        self._balanced_group()
        self._block()
        self._put(None)
        self.depth -= 1

    # -- statements --------------------------------------------------------

    def _block(self) -> None:
        self._expect("{")
        while not self._at("}"):
            if self._peek() is None:
                self._error("expected '}', found end of input")
            self._statement()
        self._expect("}")

    def _stmt_or_block(self) -> None:
        # A loop's or branch's braces open no level of their own.
        if self._at("{"):
            self._block()
        else:
            self._statement()

    def _flat_statement(self) -> None:
        tok = self._peek()
        if tok is None or (tok[1] == "keyword" and tok[0] not in FLAT_KEYWORDS):
            self._error("expected statement")
        self._flat_until({";"})  # nothing, for an empty statement
        self._expect(";")

    def _paren_condition(self) -> None:
        if not self._at("("):
            self._error("expected parenthesized condition")
        self._put(CONDITION)
        self._balanced_group()
        self._put(None)

    def _if_statement(self) -> None:
        self._put(BRANCH)
        self._expect("if")
        self._paren_condition()
        self._stmt_or_block()
        self._put(None)
        while self._at("else"):
            self._put(BRANCH)
            self._advance()
            # else-if flattens into a sibling branch of the same chain
            chained = self._at("if")
            if chained:
                self._advance()
                self._paren_condition()
            self._stmt_or_block()
            self._put(None)
            if not chained:
                break

    def _while_loop(self) -> None:
        self._expect("while")
        self._paren_condition()
        self._stmt_or_block()

    def _do_loop(self) -> None:
        self._expect("do")
        self._stmt_or_block()
        self._expect("while")
        self._paren_condition()
        self._expect(";")

    def _for_loop(self) -> None:
        self._expect("for")
        self._expect("(")
        self._flat_until({";"})
        self._expect(";")
        if not self._at(";"):  # an empty test part gets no CONDITION node
            self._put(CONDITION)
            self._flat_until({";"})
            self._put(None)
        self._expect(";")
        self._flat_until({")"})
        self._expect(")")
        self._stmt_or_block()

    _STATEMENTS = {
        "if": (BRANCHING, _if_statement),
        "while": (LOOP, _while_loop),
        "do": (LOOP, _do_loop),
        "for": (LOOP, _for_loop),
        "{": (None, _block),
    }
    _CONSTRUCTS = frozenset({"else", "class"}).union(
        lexeme for lexeme, (kind, _) in _STATEMENTS.items() if kind is not None
    )

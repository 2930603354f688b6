"""Modula-2 frontend: lexical rules (Modula2Parser.SPEC) and parser.

Supported subset: MODULE header with imports, CONST/TYPE/VAR sections,
nested PROCEDURE declarations, assignment and call statements, RETURN,
IF/ELSIF/ELSE, WHILE, REPEAT/UNTIL, and FOR.  Expressions stay flat:
only construct markers become universal nodes, every other token is a
direct concrete child of the nearest enclosing construct.
"""

from __future__ import annotations

from ..scan import LexerSpec
from ..tree import EcstNode, UniversalKind
from .base import BaseParser

# Keywords that terminate a flat expression scan at bracket level zero.
COND_STOPS = frozenset(
    {";", "THEN", "DO", "OF", "END", "ELSIF", "ELSE", "UNTIL", "BEGIN", "TO", "BY"}
)

SECTION_KEYWORDS = ("VAR", "CONST", "TYPE")


class Modula2Parser(BaseParser):
    SPEC = LexerSpec(
        keywords=frozenset(
            """MODULE BEGIN END PROCEDURE VAR CONST TYPE IF THEN ELSIF ELSE
               WHILE DO REPEAT UNTIL FOR TO BY OF ARRAY RETURN IMPORT FROM
               EXPORT""".split()
        ),
        operator_words=frozenset({"AND", "OR", "NOT", "DIV", "MOD"}),
        literal_words=frozenset(),
        two_char_ops=frozenset({":=", "<=", ">=", "<>", ".."}),
        single_chars="+-*/=#<>&()[],;:.",
        punctuation=frozenset({"(", ")", "[", "]", ",", ";", ":", "."}),
        line_comment="",
        block_open="(*",
        block_close="*)",
        nested_blocks=True,
        string_escapes=False,
    )
    _CONSTRUCTS = frozenset({"IF", "WHILE", "REPEAT", "FOR", "PROCEDURE", "MODULE"})

    def _opens_construct(self, j: int) -> bool:
        # PROCEDURE with no name after it is a procedure type, such as
        # PROCEDURE (INTEGER): BOOLEAN in a declaration.
        toks = self.toks
        return toks[j].label != "PROCEDURE" or (
            j + 1 < len(toks) and toks[j + 1].token_type == "identifier"
        )

    def parse_compilation_unit(self) -> EcstNode:
        kids: list[EcstNode] = []
        if self._at("MODULE"):
            kids.append(self._advance())
            kids.append(self._expect_type("identifier"))
            kids.append(self._expect(";"))
            while self._at("FROM", "IMPORT"):
                kids.append(self._advance())
                kids.extend(self._flat_until({";"}))
                kids.append(self._expect(";"))
            self._declarations(kids)
            if self._at("BEGIN"):
                kids.append(self._advance())
                self._statement_sequence(kids, {"END"})
            kids.append(self._expect("END"))
            kids.append(self._expect_type("identifier"))
            kids.append(self._expect("."))
        else:
            self._declarations(kids)
            if not kids:
                self._error("empty compilation unit")
        return EcstNode.universal(UniversalKind.COMPILATION_UNIT, kids)

    # -- declarations ------------------------------------------------------

    def _declarations(self, kids: list[EcstNode]) -> None:
        while True:
            if self._at(*SECTION_KEYWORDS):
                kids.append(self._advance())
                while self._at_type("identifier"):
                    kids.extend(self._flat_until({";"}))
                    kids.append(self._expect(";"))
            elif self._at("PROCEDURE"):
                kids.append(self._procedure())
            else:
                return

    def _procedure(self) -> EcstNode:
        self._enter_level()
        k = [self._expect("PROCEDURE"), self._expect_type("identifier")]
        if self._at("("):
            k.extend(self._balanced_group())
        if self._at(":"):
            k.append(self._advance())
            k.append(self._expect_type("identifier"))
        k.append(self._expect(";"))
        self._declarations(k)
        if self._at("BEGIN"):
            k.append(self._advance())
            self._statement_sequence(k, {"END"})
        k.append(self._expect("END"))
        k.append(self._expect_type("identifier"))
        k.append(self._expect(";"))
        self._leave_level()
        return EcstNode.universal(UniversalKind.FUNCTION_DECL, k)

    # -- statements --------------------------------------------------------

    def _statement_sequence(self, kids: list[EcstNode], terminators: set) -> None:
        while True:
            tok = self._peek()
            if tok is None or (tok.token_type == "keyword" and tok.label in terminators):
                return
            self._statement(kids)
            # Separator semicolons stay siblings of the construct nodes.
            if self._at(";"):
                kids.append(self._advance())

    def _statement(self, kids: list[EcstNode]) -> None:
        self._enter_level()
        if self._at("IF"):
            kids.append(self._if_statement())
        elif self._at("WHILE"):
            kids.append(self._while_loop())
        elif self._at("REPEAT"):
            kids.append(self._repeat_loop())
        elif self._at("FOR"):
            kids.append(self._for_loop())
        elif self._at("RETURN"):
            kids.append(self._advance())
            kids.extend(self._flat_until(COND_STOPS))
        elif self._at_type("identifier"):
            kids.extend(self._flat_until(COND_STOPS))
        else:
            self._error("expected statement")
        self._leave_level()

    def _condition(self, stops: frozenset) -> EcstNode:
        nodes = self._flat_until(stops)
        if not nodes:
            self._error("empty condition")
        return EcstNode.universal(UniversalKind.CONDITION, nodes)

    def _if_statement(self) -> EcstNode:
        b = [self._expect("IF"), self._condition(COND_STOPS), self._expect("THEN")]
        self._statement_sequence(b, {"ELSIF", "ELSE", "END"})
        branches = [EcstNode.universal(UniversalKind.BRANCH, b)]
        while self._at("ELSIF"):
            b = [self._advance(), self._condition(COND_STOPS), self._expect("THEN")]
            self._statement_sequence(b, {"ELSIF", "ELSE", "END"})
            branches.append(EcstNode.universal(UniversalKind.BRANCH, b))
        if self._at("ELSE"):
            b = [self._advance()]
            self._statement_sequence(b, {"END"})
            branches.append(EcstNode.universal(UniversalKind.BRANCH, b))
        branches.append(self._expect("END"))
        return EcstNode.universal(UniversalKind.BRANCH_STATEMENT, branches)

    def _while_loop(self) -> EcstNode:
        k = [self._expect("WHILE"), self._condition(COND_STOPS), self._expect("DO")]
        self._statement_sequence(k, {"END"})
        k.append(self._expect("END"))
        return EcstNode.universal(UniversalKind.LOOP_STATEMENT, k)

    def _repeat_loop(self) -> EcstNode:
        k = [self._expect("REPEAT")]
        self._statement_sequence(k, {"UNTIL"})
        k.append(self._expect("UNTIL"))
        k.append(self._condition(COND_STOPS))
        return EcstNode.universal(UniversalKind.LOOP_STATEMENT, k)

    def _for_loop(self) -> EcstNode:
        k = [self._expect("FOR"), self._expect_type("identifier"), self._expect(":=")]
        k.extend(self._flat_until(COND_STOPS))
        k.append(self._expect("TO"))
        # The bound expression acts as the loop guard.
        k.append(self._condition(COND_STOPS))
        if self._at("BY"):
            k.append(self._advance())
            k.extend(self._flat_until(COND_STOPS))
        k.append(self._expect("DO"))
        self._statement_sequence(k, {"END"})
        k.append(self._expect("END"))
        return EcstNode.universal(UniversalKind.LOOP_STATEMENT, k)
